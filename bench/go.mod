module securepki.org/registrarsec/bench

go 1.23

require securepki.org/registrarsec v0.0.0

replace securepki.org/registrarsec => ../
