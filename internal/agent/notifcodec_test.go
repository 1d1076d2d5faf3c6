package agent

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/activedb/ecaagent/internal/led"
)

// ---- allocation guards: zero-allocation decode ----

// TestAllocsParseNotificationBytes: parsing one text notification with a
// warmed interner must not allocate.
func TestAllocsParseNotificationBytes(t *testing.T) {
	var in interner
	line := []byte("ECA1|db.u.ev|db.u.tbl|insert|42")
	if _, _, _, _, err := parseNotificationBytes(line, &in); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, _, _, _, err := parseNotificationBytes(line, &in); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("parseNotificationBytes allocates %.1f objects/op, want 0", avg)
	}
}

// TestAllocsDecodeTextClean: a clean multi-line text batch must decode
// with zero allocations once the name universe is interned.
func TestAllocsDecodeTextClean(t *testing.T) {
	datagram := bytes.Repeat([]byte("ECA1|db.u.ev|db.u.tbl|insert|42\n"), 8)
	sink := 0
	emit := func(p led.Primitive) { sink += p.VNo }
	onErr := func(err error) { t.Errorf("clean batch produced error: %v", err) }
	decodeText(datagram, emit, onErr) // warm wireNames
	if avg := testing.AllocsPerRun(200, func() {
		if good, bad := decodeText(datagram, emit, onErr); good != 8 || bad != 0 {
			t.Fatalf("decoded %d/%d, want 8/0", good, bad)
		}
	}); avg != 0 {
		t.Fatalf("decodeText allocates %.1f objects/op on a clean batch, want 0", avg)
	}
}

// TestInternerBounded: beyond the cap the interner keeps working (plain
// copies) without admitting new entries.
func TestInternerBounded(t *testing.T) {
	var in interner
	for i := 0; i < maxInternEntries+100; i++ {
		name := fmt.Sprintf("name-%d", i)
		if got := in.intern([]byte(name)); got != name {
			t.Fatalf("intern(%q) = %q", name, got)
		}
	}
	if in.size() != maxInternEntries {
		t.Fatalf("interner holds %d entries, cap is %d", in.size(), maxInternEntries)
	}
	// Previously admitted names still resolve to their canonical copy.
	a := in.intern([]byte("name-0"))
	b := in.intern([]byte("name-0"))
	if a != b {
		t.Error("interned name lost its canonical copy")
	}
}
