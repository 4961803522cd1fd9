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

// Sigs returns the RRSIGs at name covering the given type, producing the
// one still planned, if any.
func (z *Zone) Sigs(name string, covered dnswire.Type) (out []*dnswire.RR) {
	name = dnswire.CanonicalName(name)
	z.Read(nil, func(r *Reader) { out = r.AppendSigs(nil, name, covered) })
	return out
}

// HasName reports whether any RRset is owned by name.
func (z *Zone) HasName(name string) bool {
	name = dnswire.CanonicalName(name)
	z.mu.RLock()
	defer z.mu.RUnlock()
	return len(z.types[name]) > 0
}
