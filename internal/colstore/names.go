package colstore

import "unsafe"

// packedNames is the domain-name column in the shape the NAMES and
// NAMESOFF sections give it on disk: one blob, and n+1 offsets into it
// (nameOff[0] == 0, nameOff[n] == len(nameBlob)). A population's names are
// therefore two allocations the collector never looks inside, where a
// []string was one heap object per domain, all of them marked on every
// cycle. Bytes below nameOff[n] are never rewritten, which is what lets
// name hand out views and an ingester share its blob with a frozen index.
type packedNames struct {
	nameBlob []byte
	nameOff  []uint64
}

// name returns row i's name as a view into the blob: it stays valid as
// long as the blob does (for an mmap-loaded index, until Close).
func (p *packedNames) name(i int) string {
	b := p.nameBlob[p.nameOff[i]:p.nameOff[i+1]]
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// appendName adds one row's name at the end of the column.
func (p *packedNames) appendName(name string) {
	p.nameBlob = append(p.nameBlob, name...)
	p.nameOff = append(p.nameOff, uint64(len(p.nameBlob)))
}
