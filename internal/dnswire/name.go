package dnswire

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"strings"
)

// Errors returned by name processing.
var (
	ErrNameTooLong      = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong     = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel       = errors.New("dnswire: empty label")
	ErrBadCompression   = errors.New("dnswire: invalid compression pointer")
	ErrTruncatedMessage = errors.New("dnswire: message truncated")
	ErrDotInLabel       = errors.New("dnswire: '.' inside a label")
)

// CanonicalName normalizes a presentation-format domain name: lowercases it
// and strips a single trailing dot. The root zone canonicalizes to "".
// It does not validate label lengths; use CheckName for that.
func CanonicalName(s string) string {
	s = strings.TrimSuffix(s, ".")
	return strings.ToLower(s)
}

// CheckName validates that a canonical name has well-formed labels and fits
// in the 255-octet wire limit.
func CheckName(name string) error {
	if name == "" {
		return nil
	}
	wire := 1 // terminating root label
	for rest, more := name, true; more; {
		var label string
		label, rest, more = strings.Cut(rest, ".")
		if label == "" {
			return fmt.Errorf("%w in %q", ErrEmptyLabel, name)
		}
		if len(label) > MaxLabelLen {
			return fmt.Errorf("%w: %q", ErrLabelTooLong, label)
		}
		wire += 1 + len(label)
	}
	if wire > MaxNameWireLen {
		return fmt.Errorf("%w: %q", ErrNameTooLong, name)
	}
	return nil
}

// SplitLabels returns the labels of a canonical name in left-to-right order.
// The root name has zero labels.
func SplitLabels(name string) []string {
	if name == "" {
		return nil
	}
	return strings.Split(name, ".")
}

// CountLabels returns the number of labels in a canonical name, as used by
// the RRSIG Labels field. The root has zero labels.
func CountLabels(name string) int {
	if name == "" {
		return 0
	}
	return strings.Count(name, ".") + 1
}

// Parent returns the name with its leftmost label removed and reports
// whether the input had a parent (false only for the root).
func Parent(name string) (string, bool) {
	if name == "" {
		return "", false
	}
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[i+1:], true
	}
	return "", true
}

// IsSubdomain reports whether child is equal to or below parent in the DNS
// tree. Both arguments must be canonical. Every name is a subdomain of the
// root ("").
func IsSubdomain(child, parent string) bool {
	if parent == "" {
		return true
	}
	// Compared in place: child ends with parent, and the label boundary
	// before it is a dot.
	cut := len(child) - len(parent)
	return cut >= 0 && child[cut:] == parent && (cut == 0 || child[cut-1] == '.')
}

// SecondLevel returns the second-level domain of a canonical name: the label
// directly below the TLD plus the TLD itself (for "ns1.ovh.net" it returns
// "ovh.net"). Names with fewer than two labels are returned unchanged. This
// is the grouping rule the paper uses to identify DNS operators from NS
// records (section 4.2).
func SecondLevel(name string) string {
	labels := SplitLabels(name)
	if len(labels) <= 2 {
		return name
	}
	return strings.Join(labels[len(labels)-2:], ".")
}

// CompareCanonical implements the canonical DNS name ordering of RFC 4034
// section 6.1: names are compared right-to-left, label by label, as
// case-insensitive octet strings. It returns -1, 0 or +1.
func CompareCanonical(a, b string) int {
	for {
		i, j := strings.LastIndexByte(a, '.'), strings.LastIndexByte(b, '.')
		if c := strings.Compare(a[i+1:], b[j+1:]); c != 0 {
			return c
		}
		if i < 0 || j < 0 {
			return cmp.Compare(i, j) // the name with labels left sorts after
		}
		a, b = a[:i], b[:j]
	}
}

// compressor tracks name→offset mappings while packing a message so that
// repeated names can be encoded as compression pointers (RFC 1035 section
// 4.1.4). A nil *compressor disables compression, which is required when
// producing the canonical form of RDATA for signing.
//
// A message names a handful of suffixes — its question's and its owners' —
// so they are kept in a fixed array the packer holds on its stack, searched
// in order; only a message that names more spills into the map.
type compressor struct {
	n    int
	seen [8]struct {
		suffix string
		off    int
	}
	spills map[string]int
}

// offset returns where suffix was first packed; failing that, it records at
// as the place, if a pointer can reach it.
func (c *compressor) offset(suffix string, at int) (int, bool) {
	for _, s := range c.seen[:c.n] {
		if s.suffix == suffix {
			return s.off, true
		}
	}
	if off, ok := c.spills[suffix]; ok || at >= 0x3fff {
		return off, ok
	}
	if c.n < len(c.seen) {
		c.seen[c.n].suffix, c.seen[c.n].off = suffix, at
		c.n++
	} else {
		if c.spills == nil {
			c.spills = make(map[string]int)
		}
		c.spills[suffix] = at
	}
	return 0, false
}

// appendName appends the wire encoding of a canonical name to buf, using
// compression pointers when cmp is non-nil and the suffix has been seen at a
// pointer-reachable offset.
func appendName(buf []byte, name string, cmp *compressor) ([]byte, error) {
	if err := CheckName(name); err != nil {
		return buf, err
	}
	rest := name
	for rest != "" {
		if cmp != nil {
			if off, ok := cmp.offset(rest, len(buf)); ok {
				return append(buf, 0xc0|byte(off>>8), byte(off)), nil
			}
		}
		label := rest
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			label, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
	}
	return append(buf, 0), nil
}

// unpackName decodes a (possibly compressed) name starting at off in msg.
// It returns the canonical name and the offset just past the name in the
// original (uncompressed) stream. Compression pointer chains are bounded to
// defeat loops, and pointers must point strictly backwards. Only ASCII
// letters are folded (RFC 4343): every other byte of a label comes back as
// it was, so the name packs back to the same labels. A label holding a '.'
// could not, and is refused.
func unpackName(msg []byte, off int) (string, int, error) {
	var sb strings.Builder
	ptrBudget := 32 // far more than any legitimate message needs
	end := -1       // offset after the name in the original stream
	wireLen := 0
	for {
		if off >= len(msg) {
			return "", 0, ErrTruncatedMessage
		}
		c := int(msg[off])
		switch {
		case c == 0:
			if end < 0 {
				end = off + 1
			}
			return lowerASCII(strings.TrimSuffix(sb.String(), ".")), end, nil
		case c&0xc0 == 0xc0:
			if off+1 >= len(msg) {
				return "", 0, ErrTruncatedMessage
			}
			ptr := (c&0x3f)<<8 | int(msg[off+1])
			if ptr >= off {
				return "", 0, ErrBadCompression
			}
			if end < 0 {
				end = off + 2
			}
			if ptrBudget--; ptrBudget <= 0 {
				return "", 0, ErrBadCompression
			}
			off = ptr
		case c&0xc0 != 0:
			return "", 0, fmt.Errorf("dnswire: unsupported label type 0x%02x", c&0xc0)
		default:
			if off+1+c > len(msg) {
				return "", 0, ErrTruncatedMessage
			}
			wireLen += 1 + c
			if wireLen+1 > MaxNameWireLen {
				return "", 0, ErrNameTooLong
			}
			label := msg[off+1 : off+1+c]
			if bytes.IndexByte(label, '.') >= 0 {
				return "", 0, ErrDotInLabel
			}
			sb.Write(label)
			sb.WriteByte('.')
			off += 1 + c
		}
	}
}

// lowerASCII folds the ASCII letters of s to lower case and leaves every
// other byte as it is; s itself comes back when it has no upper case.
func lowerASCII(s string) string {
	i := 0
	for i < len(s) && !('A' <= s[i] && s[i] <= 'Z') {
		i++
	}
	if i == len(s) {
		return s
	}
	b := []byte(s)
	for ; i < len(b); i++ {
		if 'A' <= b[i] && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}
