package experiments

import "testing"

func TestE3AutoMigrationPaysOff(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment skipped in -short mode")
	}
	cfg := defaultE3Config(1)
	cfg.Workers, cfg.Rounds = 3, 25
	off, on := E3(cfg)
	if off.Migrated {
		t.Error("worker moved with automatic migration disabled")
	}
	if !on.Migrated {
		t.Error("worker did not evacuate the hogged node")
	}
	if on.Elapsed >= off.Elapsed {
		t.Fatalf("automatic migration did not pay off: on=%v off=%v", on.Elapsed, off.Elapsed)
	}
	speedup := float64(off.Elapsed) / float64(on.Elapsed)
	if speedup < 1.5 {
		t.Fatalf("benefit too small: %.2fx (on=%v off=%v)", speedup, on.Elapsed, off.Elapsed)
	}
	t.Logf("auto-migration benefit: %.1fx (off %v, on %v)", speedup, off.Elapsed, on.Elapsed)
}
