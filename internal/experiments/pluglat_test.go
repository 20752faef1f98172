package experiments

import "testing"

func TestPlugLatencyShape(t *testing.T) {
	res := PlugLatencyPlan(Options{}).runSerial(newWorld()).(*PlugLatencyResult)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// §6.2.1: plugging costs 35-45 ms for all function sizes.
		if row.PlugMs < 20 || row.PlugMs > 60 {
			t.Fatalf("%s plug = %.1fms outside the 35-45ms band", row.Fn, row.PlugMs)
		}
		// Cold start on a resized VM is 3-35% slower than static.
		slow := (row.ResizedColdMs - row.StaticColdMs) / row.StaticColdMs
		if slow < 0.005 || slow > 0.50 {
			t.Fatalf("%s resized-VM slowdown = %.1f%%, outside the paper's 3-35%% band",
				row.Fn, 100*slow)
		}
	}
	if res.Table().String() == "" {
		t.Fatal("empty table")
	}
}
