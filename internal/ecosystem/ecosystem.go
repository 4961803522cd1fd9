// Package ecosystem assembles the live DNS substrate the study runs on. A
// Tree is the signed root and TLD apexes on an in-memory network, with the
// validating resolver anchored at the root key: the one builder of that top
// for the materialized day, the registry ecosystem and the dnstest
// hierarchy. An Ecosystem is a Tree whose TLDs are run by
// registry.Registry agents, plus a shared simulation clock.
package ecosystem

import (
	"sync"
	"time"

	"securepki.org/registrarsec/internal/registry"
	"securepki.org/registrarsec/internal/resolver"
	"securepki.org/registrarsec/internal/simtime"
)

// Clock is a mutable simulation clock shared by every agent in an
// ecosystem.
type Clock struct {
	mu  sync.RWMutex
	day simtime.Day
}

// NewClock starts a clock at day.
func NewClock(day simtime.Day) *Clock { return &Clock{day: day} }

// Day returns the current day.
func (c *Clock) Day() simtime.Day {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.day
}

// Set moves the clock.
func (c *Clock) Set(day simtime.Day) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.day = day
}

// Advance moves the clock forward by n days and returns the new day.
func (c *Clock) Advance(n simtime.Day) simtime.Day {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.day += n
	return c.day
}

// TimeFunc adapts the clock to wall-clock time.
func (c *Clock) TimeFunc() func() time.Time {
	return func() time.Time { return c.Day().Time() }
}

// Config configures New.
type Config struct {
	// TLDs lists the registries to create. Default: the paper's five.
	TLDs []string
	// Incentives maps TLD → incentive program (the .nl/.se discounts).
	Incentives map[string]*registry.Incentive
	// CDSTLDs marks registries that poll CDS/CDNSKEY (".cz"-style).
	CDSTLDs map[string]bool
}

// Ecosystem is a live root + registries world on an in-memory network.
// It is the substrate on which registrar agents and the full paper
// simulation run.
type Ecosystem struct {
	*Tree
	Clock      *Clock
	Registries map[string]*registry.Registry
}

// New builds the world: a tree as of simtime.GTLDStart, the day its clock
// starts at, each TLD apex run by a registry.
func New(cfg Config) (*Ecosystem, error) {
	if len(cfg.TLDs) == 0 {
		cfg.TLDs = []string{"com", "net", "org", "nl", "se"}
	}
	tree, err := NewTree(simtime.GTLDStart.Time(), cfg.TLDs...)
	if err != nil {
		return nil, err
	}
	e := &Ecosystem{
		Tree:       tree,
		Clock:      NewClock(simtime.GTLDStart),
		Registries: make(map[string]*registry.Registry),
	}
	for _, tld := range cfg.TLDs {
		e.Registries[tld] = registry.Operate(registry.Config{
			TLD:         tld,
			AcceptsDS:   true,
			SupportsCDS: cfg.CDSTLDs[tld],
			Incentive:   cfg.Incentives[tld],
			Clock:       e.Clock.Day,
		}, tree.TLDs[tld])
	}
	return e, nil
}

// Validating builds a validating resolver over the ecosystem's tree that
// judges signatures at the simulation clock.
func (e *Ecosystem) Validating() *resolver.Validating {
	return e.ValidatingAt(e.Clock.TimeFunc())
}
