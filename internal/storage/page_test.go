package storage

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func newTestPage(size int) Page {
	return InitPage(make([]byte, size), 7, PageHeap)
}

// liveRecords counts the page's non-deleted records.
func liveRecords(p Page) int {
	n := 0
	for i := 0; i < p.NumSlots(); i++ {
		if _, err := p.Record(i); err == nil {
			n++
		}
	}
	return n
}

func TestPageHeaderFields(t *testing.T) {
	p := newTestPage(512)
	if p.ID() != 7 || p.Type() != PageHeap || p.NumSlots() != 0 {
		t.Fatalf("fresh page: id=%d type=%d slots=%d", p.ID(), p.Type(), p.NumSlots())
	}
	p.SetLSN(99)
	p.SetAux(42)
	if p.LSN() != 99 || p.Aux() != 42 {
		t.Error("LSN/Aux round trip failed")
	}
}

func TestPageInsertGet(t *testing.T) {
	p := newTestPage(512)
	s1, err := p.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Insert([]byte("world!"))
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("same slot twice")
	}
	r1, _ := p.Record(s1)
	r2, _ := p.Record(s2)
	if string(r1) != "hello" || string(r2) != "world!" {
		t.Errorf("records %q %q", r1, r2)
	}
	if n := liveRecords(p); n != 2 {
		t.Errorf("live records = %d", n)
	}
}

func TestPageDeleteAndReuse(t *testing.T) {
	p := newTestPage(512)
	s1, _ := p.Insert([]byte("aaaa"))
	if err := p.Delete(s1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Record(s1); !errors.Is(err, ErrBadSlot) {
		t.Error("deleted slot readable")
	}
	if err := p.Delete(s1); !errors.Is(err, ErrBadSlot) {
		t.Error("double delete not rejected")
	}
	s2, _ := p.Insert([]byte("bbbb"))
	if s2 != s1 {
		t.Errorf("slot not reused: %d vs %d", s2, s1)
	}
}

func TestPageUpdateInPlaceAndGrow(t *testing.T) {
	p := newTestPage(512)
	s, _ := p.Insert([]byte("0123456789"))
	if err := p.Update(s, []byte("abcde")); err != nil {
		t.Fatal(err)
	}
	r, _ := p.Record(s)
	if string(r) != "abcde" {
		t.Errorf("shrunk update = %q", r)
	}
	if err := p.Update(s, bytes.Repeat([]byte{'x'}, 100)); err != nil {
		t.Fatal(err)
	}
	r, _ = p.Record(s)
	if len(r) != 100 || r[0] != 'x' {
		t.Error("grown update failed")
	}
}

func TestPageFullAndCompact(t *testing.T) {
	p := newTestPage(256)
	rec := bytes.Repeat([]byte{1}, 40)
	var slots []int
	for {
		s, err := p.Insert(rec)
		if err != nil {
			if !errors.Is(err, ErrPageFull) {
				t.Fatal(err)
			}
			break
		}
		slots = append(slots, s)
	}
	if len(slots) < 4 {
		t.Fatalf("only %d records fit", len(slots))
	}
	// Delete every other, then insert again: compaction must make room.
	for i := 0; i < len(slots); i += 2 {
		if err := p.Delete(slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Insert(rec); err != nil {
		t.Fatalf("insert after frees: %v", err)
	}
	// Surviving records intact after compaction.
	for i := 1; i < len(slots); i += 2 {
		r, err := p.Record(slots[i])
		if err != nil || !bytes.Equal(r, rec) {
			t.Fatalf("record %d corrupted after compact", slots[i])
		}
	}
}

func TestPageInsertAt(t *testing.T) {
	p := newTestPage(512)
	if err := p.InsertAt(3, []byte("late")); err != nil {
		t.Fatal(err)
	}
	if p.NumSlots() != 4 {
		t.Errorf("NumSlots = %d, want 4", p.NumSlots())
	}
	r, err := p.Record(3)
	if err != nil || string(r) != "late" {
		t.Error("InsertAt record wrong")
	}
	// Slots 0..2 are deleted placeholders.
	if _, err := p.Record(0); !errors.Is(err, ErrBadSlot) {
		t.Error("placeholder slot readable")
	}
	if err := p.InsertAt(3, []byte("dup")); !errors.Is(err, ErrBadSlot) {
		t.Error("InsertAt into occupied slot allowed")
	}
}

func TestPageRecordTooLarge(t *testing.T) {
	p := newTestPage(256)
	if _, err := p.Insert(make([]byte, 300)); !errors.Is(err, ErrRecordSize) {
		t.Errorf("err = %v, want ErrRecordSize", err)
	}
}

// Property: a page behaves like a map slot->record under arbitrary
// insert/delete/update sequences.
func TestPageModelProperty(t *testing.T) {
	type op struct {
		Kind uint8
		Data uint8
	}
	f := func(ops []op) bool {
		p := newTestPage(512)
		model := map[int][]byte{}
		var slots []int
		for _, o := range ops {
			rec := bytes.Repeat([]byte{o.Data}, int(o.Data)%32+1)
			switch o.Kind % 3 {
			case 0:
				s, err := p.Insert(rec)
				if err == nil {
					model[s] = rec
					slots = append(slots, s)
				}
			case 1:
				if len(slots) > 0 {
					s := slots[int(o.Data)%len(slots)]
					if _, ok := model[s]; ok {
						if p.Delete(s) != nil {
							return false
						}
						delete(model, s)
					}
				}
			case 2:
				if len(slots) > 0 {
					s := slots[int(o.Data)%len(slots)]
					if _, ok := model[s]; ok {
						if p.Update(s, rec) == nil {
							model[s] = rec
						}
					}
				}
			}
		}
		for s, want := range model {
			got, err := p.Record(s)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return liveRecords(p) == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
