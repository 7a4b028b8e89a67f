package exp

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"
)

// table is one report as it is printed: a title, a header, rows of cells
// (the paper's reference values among them, in columns headed "paper") and
// note lines under it. Every report builds exactly one, and both of its
// renderings read it: text for Format, markdown for Markdown.
type table struct {
	title  string
	header []string
	rows   [][]string
	notes  []string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

// paperColumn appends a column of the paper's values, looked up by each
// row's first cell; a report the paper has no values for (ref nil) gets
// no column.
func (t *table) paperColumn(header string, ref map[string]string) {
	if ref == nil {
		return
	}
	t.header = append(t.header, header)
	for i, r := range t.rows {
		t.rows[i] = append(r, ref[r[0]])
	}
}

// text renders the title, the fixed-width table and the notes.
func (t *table) text() string {
	widths := make([]int, len(t.header))
	for _, r := range append([][]string{t.header}, t.rows...) {
		for i, c := range r {
			widths[i] = max(widths[i], utf8.RuneCountInString(c))
		}
	}
	var b strings.Builder
	b.WriteString(t.title + "\n")
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	for _, n := range t.notes {
		b.WriteString(n + "\n")
	}
	return b.String()
}

// markdown renders the title as a level-3 heading, the table, and the
// notes as a paragraph.
func (t *table) markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", t.title)
	row := func(cells []string) { fmt.Fprintf(&b, "| %s |\n", strings.Join(cells, " | ")) }
	row(t.header)
	b.WriteString(strings.Repeat("|---", len(t.header)) + "|\n")
	for _, r := range t.rows {
		row(r)
	}
	if len(t.notes) > 0 {
		b.WriteString("\n" + strings.Join(t.notes, "\n") + "\n")
	}
	b.WriteString("\n")
	return b.String()
}

func pct(v float64) string  { return fmt.Sprintf("%.1f%%", v*100) }
func pct2(v float64) string { return fmt.Sprintf("%+.2f%%", v*100) }

// speedupPct renders a ratio over baseline as its signed percentage gain.
func speedupPct(ratio float64) string { return pct2(ratio - 1) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
