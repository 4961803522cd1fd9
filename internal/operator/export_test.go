package operator

import (
	"time"

	"securepki.org/registrarsec/internal/dnswire"
)

// SignatureValidUntil reports how long the operator's signatures remain
// valid.
func (o *Operator) SignatureValidUntil(domain string) (time.Time, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	s, ok := o.signers[dnswire.CanonicalName(domain)]
	if !ok {
		return time.Time{}, false
	}
	return s.Expiration, true
}
