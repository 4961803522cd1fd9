package probe

import (
	"fmt"
	"strings"

	"securepki.org/registrarsec/internal/channel"
	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/registrar"
)

// This file renders probe observations as the paper's tables: Table 2
// (popular registrars), Table 3 (DNSSEC-heavy registrars) and Table 4
// (registrar-vs-reseller roles per TLD).

// glyph renders a boolean as the paper's ●/✗ cells (ASCII here).
func glyph(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// tri renders a TriState cell.
func tri(t TriState) string { return t.String() }

// renderTable lays out rows with aligned columns.
func renderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		sb.WriteString("\n")
	}
	line(header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteString("\n")
	for _, row := range rows {
		line(row)
	}
	return sb.String()
}

// SummarizeTable2 counts the headline findings of section 5: how many of
// the probed registrars support DNSSEC in each mode.
type Table2Summary struct {
	Probed         int
	HostedSupport  int // support DNSSEC when they are the DNS operator
	HostedDefault  int // ... by default (incl. plan-gated)
	HostedPaid     int
	OwnerSupport   int // support DS upload for external nameservers
	WebChannel     int
	EmailChannel   int
	TicketChannel  int
	ChatChannel    int
	ValidateDS     int // rejected the bogus DS
	NoValidateDS   int // accepted the bogus DS
	ForgedEmailOK  int // accepted the forged email
	EmailTested    int
	ChatMisapplied int
}

// Summarize tallies observations into the section-5 headline numbers.
func Summarize(obs []*Observation) Table2Summary {
	var s Table2Summary
	s.Probed = len(obs)
	for _, o := range obs {
		if o.HostedSigned {
			s.HostedSupport++
			if o.HostedByDefault || o.HostedPlanGated {
				s.HostedDefault++
			}
			if o.HostedNeededFee {
				s.HostedPaid++
			}
		}
		if o.OwnerSupported {
			s.OwnerSupport++
			switch o.ChannelUsed {
			case channel.Web:
				s.WebChannel++
			case channel.Email:
				s.EmailChannel++
			case channel.Ticket:
				s.TicketChannel++
			case channel.Chat:
				s.ChatChannel++
			}
			switch o.RejectsBogusDS {
			case ObservedYes:
				s.ValidateDS++
			case ObservedNo:
				s.NoValidateDS++
			}
			if o.RejectsForgedEmail != Untested {
				s.EmailTested++
				if o.RejectsForgedEmail == ObservedNo {
					s.ForgedEmailOK++
				}
			}
		}
		if o.ChatMisapplied {
			s.ChatMisapplied++
		}
	}
	return s
}

// RenderTable2 renders observations in the layout of the paper's Table 2,
// with the per-registrar domain counts (from the measurement dataset)
// alongside.
func RenderTable2(obs []*Observation, domainCounts map[string]int) string {
	header := []string{
		"Registrar", "Domains", "DNSSEC dflt", "DNSSEC opt", "Hosted OK",
		"Owner DS", "Channel", "Validates DS", "Email auth",
	}
	rows := make([][]string, 0, len(obs))
	for _, o := range obs {
		count := "-"
		if n, ok := domainCounts[o.Registrar]; ok {
			count = fmt.Sprintf("%d", n)
		}
		hostedDflt := o.HostedByDefault || o.HostedPlanGated
		dfltCell := glyph(hostedDflt)
		if o.HostedPlanGated {
			dfltCell = "some plans"
		}
		optCell := glyph(o.HostedSigned && !hostedDflt)
		if o.HostedNeededFee {
			optCell = "paid"
		}
		ch := "-"
		if o.OwnerSupported {
			ch = o.ChannelUsed.String()
			if o.FetchesDNSKEY {
				ch = "fetch"
			} else if o.AcceptsDNSKEY {
				ch = "dnskey"
			}
		}
		rows = append(rows, []string{
			o.Registrar, count, dfltCell, optCell,
			o.HostedDeployment.String(), glyph(o.OwnerSupported), ch,
			tri(o.RejectsBogusDS), tri(o.RejectsForgedEmail),
		})
	}
	return renderTable(header, rows)
}

// RenderTable3 renders the DNSSEC-heavy registrar table (Table 3): DNSSEC
// by default, whether DNSKEYs are published, whether DS records reach the
// registry, plus the owner-operator columns.
func RenderTable3(obs []*Observation, dnskeyCounts map[string]int) string {
	header := []string{
		"Registrar", "DNSKEY domains", "Default", "Publishes DNSKEY", "Uploads DS",
		"Owner DS", "Channel", "Validates DS",
	}
	rows := make([][]string, 0, len(obs))
	for _, o := range obs {
		count := "-"
		if n, ok := dnskeyCounts[o.Registrar]; ok {
			count = fmt.Sprintf("%d", n)
		}
		publishes := o.HostedDeployment == dnssec.DeploymentFull ||
			o.HostedDeployment == dnssec.DeploymentPartial
		ch := "-"
		if o.OwnerSupported {
			ch = o.ChannelUsed.String()
			if o.FetchesDNSKEY {
				ch = "fetch"
			}
		}
		rows = append(rows, []string{
			o.Registrar, count, glyph(o.HostedByDefault || o.HostedPlanGated),
			glyph(publishes), glyph(o.HostedUploadsDS),
			glyph(o.OwnerSupported), ch, tri(o.RejectsBogusDS),
		})
	}
	return renderTable(header, rows)
}

// SurveyRow is one Table 4 row: who a DNS operator uses per TLD.
type SurveyRow struct {
	Registrar string
	// PerTLD maps each TLD to "self", the partner's name, or "no support".
	PerTLD map[string]string
}

// Survey asks each registrar its standing per TLD — the questionnaire the
// authors ran for Table 4.
func Survey(regs []*registrar.Registrar, byID map[string]*registrar.Registrar, tlds []string) []SurveyRow {
	rows := make([]SurveyRow, 0, len(regs))
	for _, r := range regs {
		row := SurveyRow{Registrar: r.Name, PerTLD: make(map[string]string, len(tlds))}
		for _, tld := range tlds {
			role := r.RoleFor(tld)
			switch role.Kind {
			case registrar.RoleRegistrar:
				row.PerTLD[tld] = r.Name
			case registrar.RoleReseller:
				if p, ok := byID[role.Partner]; ok {
					row.PerTLD[tld] = p.Name
				} else {
					row.PerTLD[tld] = role.Partner
				}
			default:
				row.PerTLD[tld] = "no support"
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderTable4 renders the survey matrix.
func RenderTable4(rows []SurveyRow, tlds []string) string {
	header := append([]string{"DNS operator"}, tlds...)
	out := make([][]string, 0, len(rows))
	for _, row := range rows {
		cells := []string{row.Registrar}
		for _, tld := range tlds {
			cells = append(cells, row.PerTLD[tld])
		}
		out = append(out, cells)
	}
	return renderTable(header, out)
}
