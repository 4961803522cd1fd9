package colstore

// The sequential, row-at-a-time reference builder that Plan's planned fill
// is held to: fed the same rows, both must serialize to the same bytes.

// Builder accumulates domains and freezes them into an Index.
type Builder struct {
	interner
}

// NewBuilder returns a builder with capacity hint n.
func NewBuilder(n int) *Builder {
	b := &Builder{newInterner(0)}
	x := b.idx
	x.nameOff = make([]uint64, 1, n+1)
	x.opID = make([]uint32, 0, n)
	x.tldID = make([]uint16, 0, n)
	x.regID = make([]uint32, 0, n)
	x.created = make([]int32, 0, n)
	x.keyDay = make([]int32, 0, n)
	x.dsDay = make([]int32, 0, n)
	x.fullDay = make([]int32, 0, n)
	x.flags = make([]uint8, 0, n)
	return b
}

// Add appends one domain. Rows may arrive in any order; Build sorts the
// derived event lists, not the rows themselves.
func (b *Builder) Add(d Domain) {
	x := b.idx
	op, tld, reg := b.intern(d.Operator, d.NSHost, d.TLD, d.Registrar)
	fl := historyFlags(d.BrokenDS, d.ExpiredSig)
	x.appendName(d.Name)
	x.opID = append(x.opID, op)
	x.tldID = append(x.tldID, tld)
	x.regID = append(x.regID, reg)
	x.created = append(x.created, clampDay(d.Created))
	x.keyDay = append(x.keyDay, int32(d.KeyDay))
	x.dsDay = append(x.dsDay, int32(d.DSDay))
	x.fullDay = append(x.fullDay, deriveFullDay(int32(d.KeyDay), int32(d.DSDay), fl))
	x.flags = append(x.flags, fl)
}

// Build freezes the columns: the per-(operator, TLD) event groups are
// bucketed and day-sorted, and the builder must not be reused. The record
// template is built lazily on the first snapshot.
func (b *Builder) Build() *Index {
	x := b.idx
	b.idx = nil
	x.opNS = hostSlices(b.nsHosts)
	x.finish()
	return x
}
