package zone

import (
	"bufio"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"securepki.org/registrarsec/internal/dnswire"
)

// Parse reads a zone in master-file format (RFC 1035 section 5). It
// supports $ORIGIN and $TTL directives, "@", relative names, parenthesized
// continuations, ";" comments and quoted character strings. defaultOrigin
// seeds $ORIGIN; a $ORIGIN directive in the file overrides it. The dialect
// has no escapes in names, so a name that would need one is refused.
func Parse(r io.Reader, defaultOrigin string) (*Zone, error) {
	if strings.ContainsAny(defaultOrigin, unpresentable) {
		return nil, fmt.Errorf("origin %q: not a name a zone file can carry", defaultOrigin)
	}
	origin := dnswire.CanonicalName(defaultOrigin)
	z := New(origin)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)

	var ttl uint32 = 3600
	ttlSet := false
	lastName := origin
	lineNo := 0
	var pending []string // token accumulation across parenthesized lines
	parens := 0
	pendingStart := 0

	processEntry := func(tokens []string, startLine int) error {
		if len(tokens) == 0 {
			return nil
		}
		switch tokens[0] {
		case "$ORIGIN":
			if len(tokens) != 2 || strings.ContainsAny(tokens[1], unpresentable) {
				return fmt.Errorf("line %d: $ORIGIN needs one name", startLine)
			}
			origin = dnswire.CanonicalName(tokens[1])
			return nil
		case "$TTL":
			if len(tokens) != 2 {
				return fmt.Errorf("line %d: $TTL needs one argument", startLine)
			}
			v, err := parseTTL(tokens[1])
			if err != nil {
				return fmt.Errorf("line %d: %v", startLine, err)
			}
			ttl = v
			ttlSet = true
			z.DefaultTTL = v
			return nil
		}
		rr, err := parseRecordTokens(tokens, origin, lastName, ttl, startLine)
		if err != nil {
			return err
		}
		lastName = rr.Name
		if !ttlSet && rr.TTL == 0 {
			rr.TTL = z.DefaultTTL
		}
		return z.Add(rr)
	}

	for sc.Scan() {
		lineNo++
		line := stripComment(sc.Text())
		tokens, opens, closes, err := tokenize(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		// Leading whitespace means "same owner as previous record"; mark it
		// with an explicit sentinel only at the start of an entry.
		if parens == 0 && len(tokens) > 0 && len(line) > 0 && (line[0] == ' ' || line[0] == '\t') {
			tokens = append([]string{blankOwner}, tokens...)
		}
		if parens == 0 {
			pending = tokens
			pendingStart = lineNo
		} else {
			pending = append(pending, tokens...)
		}
		parens += opens - closes
		if parens < 0 {
			return nil, fmt.Errorf("line %d: unbalanced ')'", lineNo)
		}
		if parens == 0 {
			if err := processEntry(pending, pendingStart); err != nil {
				return nil, err
			}
			pending = nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if parens != 0 {
		return nil, fmt.Errorf("line %d: unclosed '('", lineNo)
	}
	z.Origin = origin
	return z, nil
}

// blankOwner marks an entry that inherits the previous owner name.
const blankOwner = "\x00blank"

// unpresentable are the bytes no name or non-TXT field may hold: they
// separate, quote or comment out tokens, or end the line.
const unpresentable = " \t\r\n()\";"

// stripComment removes a ";" comment, respecting quoted strings and the
// escapes inside them.
func stripComment(line string) string {
	inQuote := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"':
			inQuote = !inQuote
		case '\\':
			if inQuote {
				i++
			}
		case ';':
			if !inQuote {
				return line[:i]
			}
		}
	}
	return line
}

// tokenize splits a line into tokens, treating parentheses as structure and
// honoring quoted strings, inside which \X stands for X and \DDD for the
// byte DDD (RFC 1035 section 5.1). It returns tokens plus the count of
// opening and closing parens.
func tokenize(line string) (tokens []string, opens, closes int, err error) {
	i := 0
	for i < len(line) {
		c := line[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '(':
			opens++
			i++
		case c == ')':
			closes++
			i++
		case c == '"':
			s := []byte{'"'} // keep a marker for "quoted"
			j := i + 1
			for ; j < len(line) && line[j] != '"'; j++ {
				if line[j] == '\\' && j+1 < len(line) {
					j++
					if d := line[j:min(j+3, len(line))]; len(d) == 3 && isDigits(d) {
						v, _ := strconv.Atoi(d)
						if v > 255 {
							return nil, 0, 0, fmt.Errorf("escape \\%s is not a byte", d)
						}
						s = append(s, byte(v))
						j += 2
						continue
					}
				}
				s = append(s, line[j])
			}
			if j >= len(line) {
				return nil, 0, 0, fmt.Errorf("unterminated quote")
			}
			tokens = append(tokens, string(s))
			i = j + 1
		default:
			j := i
			for j < len(line) && !strings.ContainsRune(" \t()", rune(line[j])) {
				j++
			}
			tokens = append(tokens, line[i:j])
			i = j
		}
	}
	return tokens, opens, closes, nil
}

func isDigits(s string) bool {
	return strings.Trim(s, "0123456789") == ""
}

// parseTTL accepts plain seconds or BIND-style unit suffixes (1h30m, 2d, 1w).
func parseTTL(s string) (uint32, error) {
	if v, err := strconv.ParseUint(s, 10, 32); err == nil {
		return uint32(v), nil
	}
	total := time.Duration(0)
	rest := strings.ToLower(s)
	if rest == "" {
		return 0, fmt.Errorf("empty TTL")
	}
	for rest != "" {
		i := 0
		for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
			i++
		}
		if i == 0 || i == len(rest) {
			return 0, fmt.Errorf("bad TTL %q", s)
		}
		n, _ := strconv.Atoi(rest[:i])
		var unit time.Duration
		switch rest[i] {
		case 's':
			unit = time.Second
		case 'm':
			unit = time.Minute
		case 'h':
			unit = time.Hour
		case 'd':
			unit = 24 * time.Hour
		case 'w':
			unit = 7 * 24 * time.Hour
		default:
			return 0, fmt.Errorf("bad TTL unit %q", s)
		}
		total += time.Duration(n) * unit
		rest = rest[i+1:]
	}
	return uint32(total / time.Second), nil
}

// absName resolves a possibly-relative presentation name against origin.
func absName(tok, origin string) string {
	if tok == "@" {
		return origin
	}
	if strings.HasSuffix(tok, ".") {
		return dnswire.CanonicalName(tok)
	}
	n := dnswire.CanonicalName(tok)
	if origin == "" {
		return n
	}
	return n + "." + origin
}

// parseRecordTokens decodes one record entry.
func parseRecordTokens(tokens []string, origin, lastName string, defTTL uint32, line int) (*dnswire.RR, error) {
	name := lastName
	i := 0
	if tokens[0] == blankOwner {
		i = 1
	} else {
		name = absName(tokens[0], origin)
		i = 1
	}
	ttl := defTTL
	class := dnswire.ClassINET
	// TTL and class may appear in either order before the type.
	for i < len(tokens) {
		tok := tokens[i]
		if tok == "IN" {
			i++
			continue
		}
		if v, err := parseTTL(tok); err == nil && !isTypeToken(tok) {
			ttl = v
			i++
			continue
		}
		break
	}
	if i >= len(tokens) {
		return nil, fmt.Errorf("line %d: missing record type", line)
	}
	typ, ok := dnswire.TypeFromString(tokens[i])
	if !ok {
		return nil, fmt.Errorf("line %d: unknown record type %q", line, tokens[i])
	}
	i++
	for j, tok := range tokens {
		if (j < i || typ != dnswire.TypeTXT) && tok != blankOwner && strings.ContainsAny(tok, unpresentable) {
			return nil, fmt.Errorf("line %d: %q: quotes and comments belong in TXT strings", line, tok)
		}
	}
	data, err := parseRData(typ, tokens[i:], origin, line)
	if err != nil {
		return nil, err
	}
	return &dnswire.RR{Name: name, Type: typ, Class: class, TTL: ttl, Data: data}, nil
}

// isTypeToken reports whether tok names an RR type; guards against TTL
// parsing swallowing types like "NS" (it cannot, but be explicit).
func isTypeToken(tok string) bool {
	_, ok := dnswire.TypeFromString(tok)
	return ok
}

func unquote(tok string) string {
	return strings.TrimPrefix(tok, "\"")
}

// parseRData decodes the presentation RDATA for the supported types.
func parseRData(t dnswire.Type, f []string, origin string, line int) (dnswire.RData, error) {
	need := func(n int) error {
		if len(f) < n {
			return fmt.Errorf("line %d: %v needs %d fields, have %d", line, t, n, len(f))
		}
		return nil
	}
	u32 := func(s string) (uint32, error) {
		v, err := strconv.ParseUint(s, 10, 32)
		return uint32(v), err
	}
	u16 := func(s string) (uint16, error) {
		v, err := strconv.ParseUint(s, 10, 16)
		return uint16(v), err
	}
	u8 := func(s string) (uint8, error) {
		v, err := strconv.ParseUint(s, 10, 8)
		return uint8(v), err
	}
	switch t {
	case dnswire.TypeA:
		if err := need(1); err != nil {
			return nil, err
		}
		a, err := netip.ParseAddr(f[0])
		if err != nil || !a.Is4() {
			return nil, fmt.Errorf("line %d: bad A address %q", line, f[0])
		}
		return &dnswire.A{Addr: a}, nil
	case dnswire.TypeAAAA:
		if err := need(1); err != nil {
			return nil, err
		}
		a, err := netip.ParseAddr(f[0])
		if err != nil || !a.Is6() {
			return nil, fmt.Errorf("line %d: bad AAAA address %q", line, f[0])
		}
		return &dnswire.AAAA{Addr: a}, nil
	case dnswire.TypeNS:
		if err := need(1); err != nil {
			return nil, err
		}
		return &dnswire.NS{Host: absName(f[0], origin)}, nil
	case dnswire.TypeCNAME:
		if err := need(1); err != nil {
			return nil, err
		}
		return &dnswire.CNAME{Target: absName(f[0], origin)}, nil
	case dnswire.TypePTR:
		if err := need(1); err != nil {
			return nil, err
		}
		return &dnswire.PTR{Target: absName(f[0], origin)}, nil
	case dnswire.TypeMX:
		if err := need(2); err != nil {
			return nil, err
		}
		pref, err := u16(f[0])
		if err != nil {
			return nil, fmt.Errorf("line %d: bad MX preference: %v", line, err)
		}
		return &dnswire.MX{Pref: pref, Host: absName(f[1], origin)}, nil
	case dnswire.TypeTXT:
		if err := need(1); err != nil {
			return nil, err
		}
		ss := make([]string, len(f))
		for i, tok := range f {
			ss[i] = unquote(tok)
		}
		return &dnswire.TXT{Strings: ss}, nil
	case dnswire.TypeSOA:
		if err := need(7); err != nil {
			return nil, err
		}
		var vals [5]uint32
		for i := 0; i < 5; i++ {
			v, err := parseTTL(f[2+i])
			if err != nil {
				return nil, fmt.Errorf("line %d: bad SOA field %q", line, f[2+i])
			}
			vals[i] = v
		}
		return &dnswire.SOA{
			MName: absName(f[0], origin), RName: absName(f[1], origin),
			Serial: vals[0], Refresh: vals[1], Retry: vals[2], Expire: vals[3], Minimum: vals[4],
		}, nil
	case dnswire.TypeDNSKEY, dnswire.TypeCDNSKEY:
		if err := need(4); err != nil {
			return nil, err
		}
		flags, err1 := u16(f[0])
		proto, err2 := u8(f[1])
		alg, err3 := u8(f[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("line %d: bad DNSKEY fields", line)
		}
		key, err := base64.StdEncoding.DecodeString(strings.Join(f[3:], ""))
		if err != nil {
			return nil, fmt.Errorf("line %d: bad DNSKEY base64: %v", line, err)
		}
		dk := dnswire.DNSKEY{Flags: flags, Protocol: proto, Algorithm: dnswire.Algorithm(alg), PublicKey: key}
		if t == dnswire.TypeCDNSKEY {
			return &dnswire.CDNSKEY{DNSKEY: dk}, nil
		}
		return &dk, nil
	case dnswire.TypeDS, dnswire.TypeCDS:
		if err := need(4); err != nil {
			return nil, err
		}
		tag, err1 := u16(f[0])
		alg, err2 := u8(f[1])
		dt, err3 := u8(f[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("line %d: bad DS fields", line)
		}
		digest, err := hex.DecodeString(strings.ToLower(strings.Join(f[3:], "")))
		if err != nil {
			return nil, fmt.Errorf("line %d: bad DS digest hex: %v", line, err)
		}
		ds := dnswire.DS{KeyTag: tag, Algorithm: dnswire.Algorithm(alg), DigestType: dnswire.DigestType(dt), Digest: digest}
		if t == dnswire.TypeCDS {
			return &dnswire.CDS{DS: ds}, nil
		}
		return &ds, nil
	case dnswire.TypeRRSIG:
		if err := need(9); err != nil {
			return nil, err
		}
		covered, ok := dnswire.TypeFromString(f[0])
		if !ok {
			return nil, fmt.Errorf("line %d: bad RRSIG covered type %q", line, f[0])
		}
		alg, err1 := u8(f[1])
		labels, err2 := u8(f[2])
		ottl, err3 := u32(f[3])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("line %d: bad RRSIG fields", line)
		}
		exp, err := parseRRSIGTime(f[4])
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		inc, err := parseRRSIGTime(f[5])
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		tag, err := u16(f[6])
		if err != nil {
			return nil, fmt.Errorf("line %d: bad RRSIG key tag", line)
		}
		sigBytes, err := base64.StdEncoding.DecodeString(strings.Join(f[8:], ""))
		if err != nil {
			return nil, fmt.Errorf("line %d: bad RRSIG base64: %v", line, err)
		}
		return &dnswire.RRSIG{
			TypeCovered: covered, Algorithm: dnswire.Algorithm(alg), Labels: labels,
			OriginalTTL: ottl, Expiration: exp, Inception: inc, KeyTag: tag,
			SignerName: absName(f[7], origin), Signature: sigBytes,
		}, nil
	case dnswire.TypeNSEC3:
		if err := need(5); err != nil {
			return nil, err
		}
		alg, err1 := u8(f[0])
		flags, err2 := u8(f[1])
		iter, err3 := u16(f[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("line %d: bad NSEC3 fields", line)
		}
		var salt []byte
		if f[3] != "-" {
			salt, err1 = hex.DecodeString(strings.ToLower(f[3]))
			if err1 != nil {
				return nil, fmt.Errorf("line %d: bad NSEC3 salt", line)
			}
		}
		next, err := dnswire.Base32HexDecode(f[4])
		if err == nil && len(next) == 0 {
			err = fmt.Errorf("%q holds no octet", f[4])
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: bad NSEC3 next hash: %v", line, err)
		}
		var types []dnswire.Type
		for _, tok := range f[5:] {
			tt, ok := dnswire.TypeFromString(tok)
			if !ok {
				return nil, fmt.Errorf("line %d: bad NSEC3 type %q", line, tok)
			}
			types = append(types, tt)
		}
		return &dnswire.NSEC3{
			HashAlg: alg, Flags: flags, Iterations: iter,
			Salt: salt, NextHashed: next, Types: types,
		}, nil
	case dnswire.TypeNSEC3PARAM:
		if err := need(4); err != nil {
			return nil, err
		}
		alg, err1 := u8(f[0])
		flags, err2 := u8(f[1])
		iter, err3 := u16(f[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("line %d: bad NSEC3PARAM fields", line)
		}
		var salt []byte
		if f[3] != "-" {
			var err error
			salt, err = hex.DecodeString(strings.ToLower(f[3]))
			if err != nil {
				return nil, fmt.Errorf("line %d: bad NSEC3PARAM salt", line)
			}
		}
		return &dnswire.NSEC3PARAM{HashAlg: alg, Flags: flags, Iterations: iter, Salt: salt}, nil
	case dnswire.TypeNSEC:
		if err := need(1); err != nil {
			return nil, err
		}
		var types []dnswire.Type
		for _, tok := range f[1:] {
			tt, ok := dnswire.TypeFromString(tok)
			if !ok {
				return nil, fmt.Errorf("line %d: bad NSEC type %q", line, tok)
			}
			types = append(types, tt)
		}
		return &dnswire.NSEC{NextName: absName(f[0], origin), Types: types}, nil
	default:
		// RFC 3597 generic form: \# length hexdata
		if len(f) >= 2 && f[0] == "\\#" {
			data, err := hex.DecodeString(strings.Join(f[2:], ""))
			if err != nil {
				return nil, fmt.Errorf("line %d: bad generic rdata: %v", line, err)
			}
			return &dnswire.Generic{T: t, Data: data}, nil
		}
		return nil, fmt.Errorf("line %d: cannot parse rdata for %v", line, t)
	}
}

// parseRRSIGTime accepts YYYYMMDDHHmmSS or raw epoch seconds.
func parseRRSIGTime(s string) (uint32, error) {
	if len(s) == 14 {
		tm, err := time.Parse("20060102150405", s)
		if err == nil {
			return uint32(tm.Unix()), nil
		}
	}
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad RRSIG time %q", s)
	}
	return uint32(v), nil
}

// WriteTo serializes the zone in master-file format, starting with $ORIGIN
// and $TTL directives. Output is deterministic (canonical ordering).
func (z *Zone) WriteTo(w io.Writer) (int64, error) {
	var total int64
	emit := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	if err := emit("$ORIGIN %s\n$TTL %d\n", presentDot(z.Origin), z.DefaultTTL); err != nil {
		return total, err
	}
	var outErr error
	z.RRSets(func(name string, t dnswire.Type, rrs []*dnswire.RR) {
		if outErr != nil {
			return
		}
		for _, rr := range rrs {
			if err := emit("%s\n", rr.String()); err != nil {
				outErr = err
				return
			}
		}
	})
	return total, outErr
}

func presentDot(name string) string {
	if name == "" {
		return "."
	}
	return name + "."
}
