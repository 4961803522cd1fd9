package zone

import (
	"fmt"

	"securepki.org/registrarsec/internal/dnswire"
)

// EagerSign is the reference the planned zone is held to: the preparation
// Signer.Sign does, then every RRSIG produced on the spot and added as a
// record, in RRSets order. A zone it signed holds no plan.
func EagerSign(s *Signer, z *Zone) error {
	if err := s.install(z); err != nil {
		return err
	}
	var sets [][]*dnswire.RR
	signable(z, func(rrs []*dnswire.RR) { sets = append(sets, rrs) })
	for _, rrs := range sets {
		sig, err := s.SignRRSet(z.Origin, rrs)
		if err != nil {
			return fmt.Errorf("zone %s: signing %s/%v: %w", present(z.Origin), rrs[0].Name, rrs[0].Type, err)
		}
		if err := z.Add(sig); err != nil {
			return err
		}
	}
	return nil
}
