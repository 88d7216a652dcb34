package storage

import (
	"os"
	"sync"
	"testing"
)

type doc struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := doc{Name: "mall", Count: 7}
	if err := s.Put("dsm", "mall", want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	var got doc
	if err := s.Get("dsm", "mall", &got); err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got != want {
		t.Errorf("round trip = %+v", got)
	}
	// Overwrite.
	want.Count = 8
	if err := s.Put("dsm", "mall", want); err != nil {
		t.Fatal(err)
	}
	if err := s.Get("dsm", "mall", &got); err != nil || got.Count != 8 {
		t.Errorf("overwrite: %+v, %v", got, err)
	}
}

func TestGetMissing(t *testing.T) {
	s, _ := Open(t.TempDir())
	var got doc
	err := s.Get("dsm", "nope", &got)
	if err == nil || !os.IsNotExist(err) {
		t.Errorf("missing get error = %v", err)
	}
}

func TestList(t *testing.T) {
	s, _ := Open(t.TempDir())
	s.Put("tasks", "b", doc{})
	s.Put("tasks", "a", doc{})
	s.Put("dsm", "venue", doc{})
	keys, err := s.List("tasks")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Errorf("keys = %v", keys)
	}
	// Missing collection lists empty.
	if keys, err := s.List("nothing"); err != nil || keys != nil {
		t.Errorf("missing collection = %v, %v", keys, err)
	}
}

func TestInvalidNamesRejected(t *testing.T) {
	s, _ := Open(t.TempDir())
	bad := []string{"", "a/b", `a\b`, ".."}
	for _, name := range bad {
		if err := s.Put(name, "k", doc{}); err == nil {
			t.Errorf("collection %q accepted", name)
		}
		if err := s.Put("c", name, doc{}); err == nil {
			t.Errorf("key %q accepted", name)
		}
		if _, err := s.List(name); err == nil && name != "" {
			t.Errorf("List(%q) accepted", name)
		}
	}
}

func TestPutRejectsUnmarshalable(t *testing.T) {
	s, _ := Open(t.TempDir())
	if err := s.Put("c", "k", make(chan int)); err == nil {
		t.Error("channel marshaled")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, _ := Open(t.TempDir())
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			key := string(rune('a' + n%4))
			for j := 0; j < 20; j++ {
				s.Put("c", key, doc{Count: j})
				var d doc
				s.Get("c", key, &d)
				s.List("c")
			}
		}(i)
	}
	wg.Wait()
	keys, err := s.List("c")
	if err != nil || len(keys) != 4 {
		t.Errorf("after concurrency: %v, %v", keys, err)
	}
}
