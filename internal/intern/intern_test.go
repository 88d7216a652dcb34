package intern

import (
	"fmt"
	"sync"
	"testing"
)

func TestTableBasics(t *testing.T) {
	var tab Table
	if n := len(tab.strs); n != 0 {
		t.Fatalf("zero table holds %d strings, want 0", n)
	}
	// Ids assign densely in intern order.
	for i, s := range []string{"a", "b", "c"} {
		if id := tab.Intern(s); id != ID(i) {
			t.Fatalf("Intern(%q) = %d, want %d", s, id, i)
		}
	}
	// Re-interning is stable.
	if id := tab.Intern("b"); id != 1 {
		t.Fatalf("re-Intern(b) = %d, want 1", id)
	}
	if len(tab.strs) != 3 {
		t.Fatalf("table holds %d strings, want 3", len(tab.strs))
	}
	// Round trips.
	for i, want := range []string{"a", "b", "c"} {
		if got := tab.String(ID(i)); got != want {
			t.Fatalf("String(%d) = %q, want %q", i, got, want)
		}
	}
	if got := tab.String(None); got != "" {
		t.Fatalf("String(None) = %q, want empty", got)
	}
}

func TestInternClonesTransientBuffers(t *testing.T) {
	var tab Table
	buf := []byte("device-1")
	id := tab.Intern(string(buf))
	// Mutate the buffer the way a reused parse buffer would be.
	copy(buf, "XXXXXXXX")
	if got := tab.String(id); got != "device-1" {
		t.Fatalf("stored string aliased the caller's buffer: %q", got)
	}
	if got := tab.Canonical("device-1"); got != "device-1" {
		t.Fatalf("Canonical = %q, want device-1", got)
	}
}

func TestStringPanicsOnForeignID(t *testing.T) {
	var tab Table
	tab.Intern("a")
	defer func() {
		if recover() == nil {
			t.Fatal("String(99) did not panic")
		}
	}()
	tab.String(99)
}

// TestConcurrent interleaves interning of an overlapping key set across
// goroutines (run under -race) and checks the table ends consistent: one
// dense id per distinct string, every id round-tripping.
func TestConcurrent(t *testing.T) {
	var tab Table
	const workers, keys = 8, 64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := fmt.Sprintf("key-%d", (i+w)%keys)
				id := tab.Intern(k)
				if got := tab.String(id); got != k {
					t.Errorf("String(Intern(%q)) = %q", k, got)
					return
				}
				if got := tab.Canonical(k); got != k {
					t.Errorf("Canonical(%q) = %q", k, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if len(tab.strs) != keys {
		t.Fatalf("table holds %d strings, want %d", len(tab.strs), keys)
	}
	seen := map[ID]bool{}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		id, ok := tab.ids[k]
		if !ok || id < 0 || int(id) >= keys || seen[id] {
			t.Fatalf("ids[%q] = %d, %v (dup or out of range)", k, id, ok)
		}
		seen[id] = true
	}
}

// TestHitPathZeroAlloc guards the interning contract the hot paths build
// on: once a symbol is in the table, String and Canonical are
// read-lock-only and allocation-free.
//
//trips:guards Table.String
//trips:guards Table.Canonical
func TestHitPathZeroAlloc(t *testing.T) {
	var tab Table
	id := tab.Intern("AA:BB:CC:DD:EE:FF")
	if avg := testing.AllocsPerRun(1000, func() {
		tab.String(id)
		tab.Canonical("AA:BB:CC:DD:EE:FF")
	}); avg != 0 {
		t.Errorf("intern hit path allocates %.2f times per op, want 0", avg)
	}
}
