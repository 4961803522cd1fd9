package dataset

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
)

// The member writer is the one writer of every gzip member the program
// writes: archive sections, checkpoint chunks and appended sections
// (writeSection), and the observatory's world file. It deflates a member's
// text on every core, the way pigz does: the text is cut into blocks at
// fixed memberBlock offsets, each block is deflated at memberLevel by a
// compressor of its own, every block but the last ends in a sync flush,
// and the blocks are written out in text order between the fixed header
// (memberHeader) and the CRC-32 / ISIZE trailer. A block's bytes are a
// function of its text alone, so a member's bytes depend only on its text
// — never on the number of workers, nor on how callers split their writes
// — and a decoder sees one ordinary deflate stream.
//
// pigz also primes each block's compressor with the 32 KiB of text before
// the block. Here that bought 32 bytes of paper_clean's 581 KB of members
// for a fifth more of the writer's CPU (EXPERIMENTS.md), so blocks are not
// primed.

const (
	// memberLevel is the flate level of every block.
	memberLevel = 4
	// memberBlock is the text each block deflates.
	memberBlock = 128 << 10
)

// deflaters pools the compressors between members: one costs about a
// megabyte to build, far more than deflating a block with it.
var deflaters = sync.Pool{New: func() any {
	fw, _ := flate.NewWriter(nil, memberLevel) // errs only on a bad level
	return fw
}}

// memberBlocks pools block buffers between members.
var memberBlocks = sync.Pool{New: func() any {
	return &memberBlockBuf{text: make([]byte, 0, memberBlock), done: make(chan struct{}, 1)}
}}

// memberBlockBuf is one block in flight: its text, the compressor it is
// deflated with, and its deflated bytes once done is signalled.
type memberBlockBuf struct {
	text  []byte
	final bool
	fw    *flate.Writer
	out   bytes.Buffer
	done  chan struct{}
}

// deflate deflates the block into b.out.
func (b *memberBlockBuf) deflate() {
	b.out.Reset()
	b.fw.Reset(&b.out)
	b.fw.Write(b.text) // writes to a bytes.Buffer do not fail
	if b.final {
		b.fw.Close()
	} else {
		b.fw.Flush()
	}
}

// MemberWriter writes one gzip member (RFC 1952) of fixed header
// memberHeader, deflating its text on up to GOMAXPROCS cores. It holds at
// most workers+1 blocks and workers compressors at once, so its memory does
// not grow with the member. A member of one block is deflated on the
// calling goroutine.
type MemberWriter struct {
	w       io.Writer
	workers int
	cur     *memberBlockBuf   // the block being filled
	pending []*memberBlockBuf // blocks being deflated, in text order
	free    []*memberBlockBuf
	idle    []*flate.Writer // compressors taken from deflaters, not in use
	crc     uint32
	size    uint32
	started bool // the header is written
	err     error
}

// NewMemberWriter starts a member written to w. Close writes its last
// block and trailer; w sees nothing before the first block is deflated.
func NewMemberWriter(w io.Writer) *MemberWriter {
	return newMemberWriter(w, runtime.GOMAXPROCS(0))
}

// newMemberWriter is NewMemberWriter deflating at most workers blocks at
// once.
func newMemberWriter(w io.Writer, workers int) *MemberWriter {
	m := &MemberWriter{w: w, workers: max(workers, 1)}
	m.cur = m.block()
	return m
}

// block returns an empty block: one of the member's own if one is free.
func (m *MemberWriter) block() *memberBlockBuf {
	var b *memberBlockBuf
	if n := len(m.free); n > 0 {
		b, m.free = m.free[n-1], m.free[:n-1]
	} else {
		b = memberBlocks.Get().(*memberBlockBuf)
	}
	b.text, b.final = b.text[:0], false
	return b
}

// deflater returns an idle compressor, taking one from the pool if none is.
func (m *MemberWriter) deflater() *flate.Writer {
	if n := len(m.idle); n > 0 {
		fw := m.idle[n-1]
		m.idle = m.idle[:n-1]
		return fw
	}
	return deflaters.Get().(*flate.Writer)
}

// Write adds text to the member. A block is handed to a worker once text
// past its end arrives, so the last block is always the one Close writes.
func (m *MemberWriter) Write(p []byte) (int, error) {
	if m.cur == nil {
		return 0, errors.New("dataset: member written after Close")
	}
	n := len(p)
	for len(p) > 0 && m.err == nil {
		room := memberBlock - len(m.cur.text)
		if room == 0 {
			m.dispatch()
			continue
		}
		k := min(room, len(p))
		m.cur.text = append(m.cur.text, p[:k]...)
		p = p[k:]
	}
	if m.err != nil {
		return n - len(p), m.err
	}
	return n, nil
}

// take makes the current block the next to deflate: its text goes into
// the trailer's checksum and length, and once the oldest block is written
// out, when workers blocks are in flight, it gets a compressor.
func (m *MemberWriter) take() *memberBlockBuf {
	b := m.cur
	m.crc = crc32.Update(m.crc, crc32.IEEETable, b.text)
	m.size += uint32(len(b.text)) // ISIZE is the length mod 2^32
	if len(m.pending) == m.workers {
		m.writeOldest()
	}
	b.fw = m.deflater()
	return b
}

// dispatch hands the full current block to a worker and starts the next.
func (m *MemberWriter) dispatch() {
	b := m.take()
	m.pending = append(m.pending, b)
	go func() {
		b.deflate()
		b.done <- struct{}{}
	}()
	m.cur = m.block()
}

// writeOldest waits for the oldest pending block and writes it out.
func (m *MemberWriter) writeOldest() {
	b := m.pending[0]
	<-b.done
	m.pending = append(m.pending[:0], m.pending[1:]...)
	m.put(b.out.Bytes())
	m.idle = append(m.idle, b.fw)
	b.fw = nil
	m.free = append(m.free, b)
}

// put writes deflated bytes, the header before the first.
func (m *MemberWriter) put(p []byte) {
	if m.err != nil {
		return
	}
	if !m.started {
		m.started = true
		if _, m.err = m.w.Write(memberHeader); m.err != nil {
			return
		}
	}
	_, m.err = m.w.Write(p)
}

// Close deflates the last block on the calling goroutine, writes every
// block out in order, then the trailer. It does not close the underlying
// writer. A writer abandoned without Close leaks no goroutine: each
// finishes its block and exits.
func (m *MemberWriter) Close() error {
	if m.cur == nil {
		return m.err
	}
	b := m.take()
	m.cur = nil
	b.final = true
	b.deflate()
	for len(m.pending) > 0 {
		m.writeOldest()
	}
	m.put(b.out.Bytes())
	m.put(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, m.crc), m.size))
	for _, fw := range append(m.idle, b.fw) {
		deflaters.Put(fw)
	}
	for _, b := range append(m.free, b) {
		memberBlocks.Put(b)
	}
	m.idle, m.free = nil, nil
	return m.err
}
