package bench

import "strings"

// CSV renders a table as CSV (for gnuplot/spreadsheet replotting of
// the figures).
func CSV(t Table) string {
	var b strings.Builder
	for _, row := range append([][]string{t.Header}, t.Rows...) {
		b.WriteString(csvLine(row) + "\n")
	}
	return b.String()
}

func csvLine(cells []string) string {
	out := make([]string, len(cells))
	for i, c := range cells {
		if strings.ContainsAny(c, ",\"\n") {
			c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		out[i] = c
	}
	return strings.Join(out, ",")
}
