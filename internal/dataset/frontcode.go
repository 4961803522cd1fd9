package dataset

import "fmt"

// Front coding of sorted name lists, the incremental encoding of sorted keys
// that LevelDB's blocks and frcode use: each name is written as one marker
// byte for k, the length of the prefix it shares with the name before it,
// followed by the rest of the name. The marker for k is 'A'+k-1, for
// 1 ≤ k ≤ maxShared. A name that shares nothing is written as it is — k = 0,
// no marker — which is how every name was written before front coding, so a
// list written then reads as it did.
//
// No canonical domain name holds an upper-case ASCII letter, so no plain
// name is taken for a marker: the writers refuse a name that starts with
// one (IsFrontMarker) and always write the largest k the cap allows, so a
// list has one coding. A reader takes any k up to the previous name's
// length, the plain k = 0 included, and refuses a longer one.
//
// An archive section front-codes the domain of each record line against the
// line before it (writeSection, section.record), and the observatory's world
// file its NAMELINE (colstore). Spill runs, and the mapped world form, stay
// plain.

// maxShared is the longest shared prefix one marker names: 'Z'.
const maxShared = 'Z' - 'A' + 1

// IsFrontMarker reports whether c is a marker byte: a name a front-coded
// list carries cannot start with one.
func IsFrontMarker(c byte) bool { return 'A' <= c && c <= 'Z' }

// frontShared is the k a writer writes for name after prev: the longest
// prefix they share, up to maxShared.
func frontShared(prev, name []byte) int {
	n := min(len(prev), len(name), maxShared)
	k := 0
	for k < n && prev[k] == name[k] {
		k++
	}
	return k
}

// AppendFrontCoded appends name, front-coded against prev, the name before it
// in its list (empty for the first), to dst. name must not start with a
// marker byte.
func AppendFrontCoded(dst, prev, name []byte) []byte {
	if k := frontShared(prev, name); k > 0 {
		return append(append(dst, 'A'+byte(k-1)), name[k:]...)
	}
	return append(dst, name...)
}

// FrontCodedLen is the length of name front-coded against prev.
func FrontCodedLen(prev, name []byte) int {
	if k := frontShared(prev, name); k > 0 {
		return len(name) - k + 1
	}
	return len(name)
}

// SplitFrontCoded splits a front-coded name into the length of the prefix it
// takes from the name before it, prevLen bytes long, and the bytes that
// follow that prefix. A marker naming more than prevLen bytes is an error.
func SplitFrontCoded(coded []byte, prevLen int) (shared int, rest []byte, err error) {
	if len(coded) == 0 || !IsFrontMarker(coded[0]) {
		return 0, coded, nil
	}
	if shared = int(coded[0]-'A') + 1; shared > prevLen {
		return 0, nil, fmt.Errorf("front-coded name shares %d bytes with a name of %d", shared, prevLen)
	}
	return shared, coded[1:], nil
}
