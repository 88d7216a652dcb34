// Package storage is the TRIPS backend store: configured artifacts — DSM
// files, event patterns and training data, selector configurations, and
// translation results — are "stored in the backend for the reuse in other
// translation tasks in the same indoor space" (paper Sec. 4).
//
// The store is a directory of compact JSON documents partitioned into
// collections. Its bulk is machine-written — warehouse log segments, view
// snapshots — and a 256-trip segment is 224 B/trip compact against 388
// indented; Get reads either form. Writes are atomic (temp file + rename)
// and guarded by a process-wide mutex; the store is safe for concurrent use
// within one process, matching the single-backend deployment of the demo.
package storage

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Store is a JSON document store rooted at a directory.
type Store struct {
	root string
	mu   sync.RWMutex
}

// Open creates (if necessary) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", dir, err)
	}
	return &Store{root: dir}, nil
}

// Root returns the store directory.
//
//trips:api bench/ is a separate module and calls it
func (s *Store) Root() string { return s.root }

// validName guards collection and key names: path separators and dot-dot
// would escape the store root.
func validName(name string) error {
	if name == "" || strings.ContainsAny(name, `/\`) || strings.Contains(name, "..") {
		return fmt.Errorf("storage: invalid name %q", name)
	}
	return nil
}

func (s *Store) path(collection, key string) (string, error) {
	if err := validName(collection); err != nil {
		return "", err
	}
	if err := validName(key); err != nil {
		return "", err
	}
	return filepath.Join(s.root, collection, key+".json"), nil
}

// Put marshals v into collection/key as compact JSON, overwriting
// atomically (temp file + rename).
func (s *Store) Put(collection, key string, v interface{}) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("storage: marshal %s/%s: %w", collection, key, err)
	}
	p, err := s.path(collection, key)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), ".put-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	return os.Rename(tmpName, p)
}

// Get unmarshals collection/key into v. Missing documents return an error
// satisfying os.IsNotExist / errors.Is(err, os.ErrNotExist).
func (s *Store) Get(collection, key string, v interface{}) error {
	p, err := s.path(collection, key)
	if err != nil {
		return err
	}
	s.mu.RLock()
	data, err := os.ReadFile(p)
	s.mu.RUnlock()
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("storage: unmarshal %s/%s: %w", collection, key, err)
	}
	return nil
}

// List returns the keys of a collection, sorted. A missing collection lists
// empty.
func (s *Store) List(collection string) ([]string, error) {
	if err := validName(collection); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	entries, err := os.ReadDir(filepath.Join(s.root, collection))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var keys []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
			continue
		}
		keys = append(keys, strings.TrimSuffix(name, ".json"))
	}
	sort.Strings(keys)
	return keys, nil
}
