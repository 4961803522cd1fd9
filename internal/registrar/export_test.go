package registrar

import (
	"fmt"

	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/epp"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/zone"
)

// Registrar behaviour only this package's tests drive: a KSK rollover,
// signing switched off, a move back onto registrar DNS and a DS withdrawal.

// RolloverHostedDNSSEC rotates a hosted domain's keys with a
// make-before-break KSK rollover (RFC 6781 double-DS): the new KSK is
// pre-published alongside the old one, the registry carries DS records for
// both during the transition, then the zone is re-signed with the new keys
// only and the old DS is withdrawn. The domain validates at every step —
// the safe rollover the paper's section 8 asks registrars to offer.
func (r *Registrar) RolloverHostedDNSSEC(accountEmail, name string) error {
	d, err := r.domain(accountEmail, name)
	if err != nil {
		return err
	}
	if !d.Hosted {
		return ErrNotHosted
	}
	if d.signer == nil || !d.DNSSECOn {
		return fmt.Errorf("%w: DNSSEC not enabled on %s", ErrNotSupported, name)
	}
	path, err := r.regPathFor(d.TLD)
	if err != nil {
		return err
	}
	newSigner, err := zone.NewSigner(algorithm, r.now())
	if err != nil {
		return err
	}
	newSigner.Expiration = simtime.End.Time().AddDate(1, 0, 0)

	publishesDS := r.PublishDSTLDs == nil || r.PublishDSTLDs[d.TLD]

	// Phase 1: pre-publish the new KSK and install both DS records.
	if err := d.zone.Add(newSigner.KSK.RR(d.Name, 3600)); err != nil {
		return err
	}
	if err := d.signer.SignSet(d.zone, d.Name, dnswire.TypeDNSKEY); err != nil {
		return err
	}
	if publishesDS {
		oldDS, err := d.signer.DSRecords(d.Name, dnswire.DigestSHA256)
		if err != nil {
			return err
		}
		newDS, err := newSigner.DSRecords(d.Name, dnswire.DigestSHA256)
		if err != nil {
			return err
		}
		if err := path.setDS(d.Name, append(oldDS, newDS...)); err != nil {
			return err
		}
	}

	// Phase 2: re-sign everything with the new keys and retire the old DS.
	// (In production a TTL-derived hold-down separates the phases; the
	// registrar agent applies them back to back, which is still valid —
	// at no point is the served chain unverifiable.)
	if err := newSigner.Sign(d.zone); err != nil {
		return err
	}
	d.signer = newSigner
	if publishesDS {
		newDS, err := newSigner.DSRecords(d.Name, dnswire.DigestSHA256)
		if err != nil {
			return err
		}
		return path.setDS(d.Name, newDS)
	}
	return nil
}

// DisableHostedDNSSEC removes DNSSEC from a hosted domain (DS first, then
// the zone records, per operational best practice).
func (r *Registrar) DisableHostedDNSSEC(accountEmail, name string) error {
	d, err := r.domain(accountEmail, name)
	if err != nil {
		return err
	}
	if !d.Hosted {
		return ErrNotHosted
	}
	path, err := r.regPathFor(d.TLD)
	if err != nil {
		return err
	}
	if err := path.setDS(d.Name, nil); err != nil {
		return err
	}
	zone.Unsign(d.zone)
	d.DNSSECOn = false
	d.signer = nil
	return nil
}

// UseRegistrarHosting switches the domain back to registrar DNS.
func (r *Registrar) UseRegistrarHosting(accountEmail, name string) error {
	d, err := r.domain(accountEmail, name)
	if err != nil {
		return err
	}
	path, err := r.regPathFor(d.TLD)
	if err != nil {
		return err
	}
	if err := path.session(func(c *epp.Client) error { return c.UpdateNS(d.Name, r.NSHosts) }); err != nil {
		return err
	}
	_ = path.setDS(d.Name, nil)
	if d.zone == nil {
		d.zone = r.buildHostedZone(d.Name)
	}
	r.srv.AddZone(d.zone)
	d.Hosted = true
	d.ExternalNS = nil
	if r.signsByDefault(d.Plan) {
		_ = r.enableHostedDNSSEC(d, path)
	}
	return nil
}

// RemoveDS withdraws the DS records of a domain.
func (r *Registrar) RemoveDS(accountEmail, name string) error {
	d, err := r.domain(accountEmail, name)
	if err != nil {
		return err
	}
	path, err := r.regPathFor(d.TLD)
	if err != nil {
		return err
	}
	return path.setDS(d.Name, nil)
}
