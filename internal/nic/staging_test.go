package nic

import "testing"

// TestStagingClasses: every pooled size gets a buffer of its class back,
// a frame of headers plus a power-of-two payload stays in the payload's
// class, and sizes outside the classes are plain allocations that
// PutStaging ignores.
func TestStagingClasses(t *testing.T) {
	for _, n := range []int{BulkMin, BulkMin + stagingSlack, BulkMin + stagingSlack + 1, 64 << 10, 64<<10 + 112, 1 << 20, MaxStaging} {
		b := GetStaging(n)
		c := stagingClass(n)
		if len(b) != n || c < 0 || cap(b) != stagingClassSize(c) {
			t.Fatalf("GetStaging(%d): len %d cap %d class %d", n, len(b), cap(b), c)
		}
		if c > 0 && stagingClassSize(c-1) >= n {
			t.Fatalf("GetStaging(%d) skipped class %d", n, c-1)
		}
		b[0], b[n-1] = 1, 2
		PutStaging(b)
		if again := GetStaging(n); cap(again) != cap(b) {
			t.Fatalf("GetStaging(%d) after Put: cap %d, want %d", n, cap(again), cap(b))
		}
	}
	if stagingClass(64<<10+112) != stagingClass(64<<10) {
		t.Fatal("a 64 KiB payload with its headers left the 64 KiB class")
	}
	for _, n := range []int{0, 1, BulkMin - 1, MaxStaging + 1} {
		if b := GetStaging(n); len(b) != n || cap(b) != n {
			t.Fatalf("GetStaging(%d) is pooled: len %d cap %d", n, len(b), cap(b))
		}
	}
	// Foreign buffers are dropped, not pooled: the next Get of that
	// class must not hand one out under a wrong capacity.
	PutStaging(nil)
	PutStaging(make([]byte, 5000))
	PutStaging(GetStaging(8 << 10)[100:])
	if b := GetStaging(5000); cap(b) != stagingClassSize(stagingClass(5000)) {
		t.Fatalf("a foreign buffer entered the pool: cap %d", cap(b))
	}
}
