package dnstest

import "securepki.org/registrarsec/internal/ecosystem"

// Aliases re-exporting the production ecosystem builder so test suites can
// keep a single import.
type (
	// Ecosystem aliases ecosystem.Ecosystem.
	Ecosystem = ecosystem.Ecosystem
	// EcosystemConfig aliases ecosystem.Config.
	EcosystemConfig = ecosystem.Config
)

// NewEcosystem builds a live registry substrate (see ecosystem.New).
func NewEcosystem(cfg EcosystemConfig) (*Ecosystem, error) { return ecosystem.New(cfg) }
