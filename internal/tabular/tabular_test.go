package tabular

import (
	"strings"
	"testing"
)

// render renders tb to a string.
func render(tb *Table) string {
	var b strings.Builder
	tb.Render(&b)
	return b.String()
}

func TestRenderAlignment(t *testing.T) {
	tb := New("name", "value")
	tb.Row("short", 1)
	tb.Row("a-much-longer-name", 3.14159)
	out := render(tb)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatalf("header missing: %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Fatalf("separator missing: %q", lines[1])
	}
	// Columns align: "value" column starts at the same offset in all
	// data rows.
	idx2 := strings.Index(lines[2], "1")
	idx3 := strings.Index(lines[3], "3.142")
	if idx2 != idx3 {
		t.Fatalf("columns misaligned: %d vs %d\n%s", idx2, idx3, out)
	}
}

func TestFloatFormatting(t *testing.T) {
	tb := New("v")
	tb.Row(50.400000001)
	if !strings.Contains(render(tb), "50.4") {
		t.Fatalf("float not compacted: %s", render(tb))
	}
}

func TestShortRow(t *testing.T) {
	tb := New("a", "b", "c")
	tb.Row("only")
	out := render(tb)
	if !strings.Contains(out, "only") {
		t.Fatal("short row dropped")
	}
}
