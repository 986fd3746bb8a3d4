package experiments

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"

	"simdtree/internal/report"
)

func parseCSV(t *testing.T, tab Table) [][]string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v", err)
	}
	return records
}

// TestWriters pins what each writer takes from a table: text and Markdown
// the headed columns with their verbs (a string cell as is), the title and
// the plot; CSV the named columns, floats to four places.
func TestWriters(t *testing.T) {
	tab := Table{
		Name:  "demo",
		Title: "# Demo\n# second line",
		Columns: []Column{{"w", "W", ""}, {"e", "E", "%.2f"}, {"", "note", ""},
			{"raw", "", ""}, {"ok", "ok", ""}},
		Rows: [][]any{
			{int64(1000), 0.5, "a", 7, true},
			{int64(20), "fit", "", 8, false},
		},
		Plot: "<plot>\n",
	}
	var text bytes.Buffer
	if err := WriteText(&text, tab); err != nil {
		t.Fatal(err)
	}
	wantText := "# Demo\n# second line\n" +
		"W     E     note  ok\n" +
		"1000  0.50  a     true\n" +
		"20    fit         false\n" +
		"<plot>\n"
	if text.String() != wantText {
		t.Errorf("text:\n%q\nwant\n%q", text.String(), wantText)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	// A string in a float column stays a string in the CSV too.
	if want := "w,e,raw,ok\n1000,0.5000,7,true\n20,fit,8,false\n"; buf.String() != want {
		t.Errorf("csv:\n%q\nwant\n%q", buf.String(), want)
	}
	doc := report.New("r")
	WriteMarkdown(doc, tab)
	md := doc.String()
	for _, frag := range []string{"\nDemo\n", "\nsecond line\n", "| W | E | note | ok |", "| 1000 | 0.50 | a | true |", "```\n<plot>\n```"} {
		if !strings.Contains(md, frag) {
			t.Errorf("markdown missing %q:\n%s", frag, md)
		}
	}
}

// TestTable2CSV checks Table 2's CSV record against the table's values.
func TestTable2CSV(t *testing.T) {
	s := tinySyntheticSuite()
	s.Workloads = s.Workloads[:1]
	tab, err := s.Table2([]float64{0.9})
	if err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, tab)
	if len(recs) != 2 || strings.Join(recs[0], ",") != "w,x,ngp_nexpand,ngp_nlb,ngp_e,gp_nexpand,gp_nlb,gp_e,xo" {
		t.Fatalf("records %v", recs)
	}
	if recs[1][0] != "2000" || recs[1][1] != "0.9000" || recs[1][6] != strconv.Itoa(Value[int](tab, 0, "gp_nlb")) {
		t.Errorf("row %v", recs[1])
	}
}

func TestTable3And4And5CSV(t *testing.T) {
	s := tinySyntheticSuite()
	s.Workloads = s.Workloads[:1]
	t3, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if recs := parseCSV(t, t3); len(recs) < 2 || len(recs[0]) != 4 {
		t.Errorf("table3: %v", recs)
	}
	t4, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if recs := parseCSV(t, t4); len(recs) != 2 || len(recs[1]) != 13 || recs[0][2] != "ngp_dp_transfers" {
		t.Errorf("table4: %v", recs)
	}
	t5, err := s.Table5(s.Workloads[0])
	if err != nil {
		t.Fatal(err)
	}
	if recs := parseCSV(t, t5); len(recs) != 4 || len(recs[1]) != 11 || recs[3][0] != "16.0000" {
		t.Errorf("table5: %v", recs)
	}
}

func TestGridCSV(t *testing.T) {
	tables, err := IsoGrid("grid", []string{"GP-S0.90"}, []int{16, 32}, []int64{1000, 4000}, 2, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	data := tables[len(tables)-1]
	if data.Name != "grid" {
		t.Fatalf("last table %q, want the grid's CSV table", data.Name)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, data); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "scheme,kind,p,w,e\n") || !strings.Contains(out, "sample") || !strings.Contains(out, "iso_0.50") {
		t.Errorf("grid CSV missing kinds:\n%s", out)
	}
}

func TestTraceAndAnomalyCSV(t *testing.T) {
	s := tinySyntheticSuite()
	tables, err := s.Fig1("GP-DK", s.Workloads[0])
	if err != nil {
		t.Fatal(err)
	}
	full := tables[1]
	recs := parseCSV(t, full)
	if full.Name != "fig1_GP-DK" || len(recs) != len(full.Rows)+1 || strings.Join(recs[0], ",") != "cycle,active,r1_ns,r2_ns" {
		t.Errorf("trace: %s %v", full.Name, recs[:1])
	}

	an, err := Anomalies(16, []uint64{1}, []int{16}, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs = parseCSV(t, an)
	if len(recs) != 2 || recs[1][5] != "true" {
		t.Errorf("anomaly: %v", recs)
	}
}
