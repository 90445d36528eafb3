package kvs

import "testing"

func BenchmarkRecordEncode(b *testing.B) {
	buf := make([]byte, RecordSize)
	b.SetBytes(RecordSize)
	for i := 0; i < b.N; i++ {
		EncodeRecord(buf, uint64(i), 1)
	}
}

func BenchmarkRecordValidate(b *testing.B) {
	buf := make([]byte, RecordSize)
	EncodeRecord(buf, 42, 7)
	b.SetBytes(RecordSize)
	for i := 0; i < b.N; i++ {
		if _, err := ValidateRecord(buf, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRecordEncodeValidateRoundTrip asserts the correctness of the pair the
// benchmarks above measure: a record encoded for key k validates under k
// and fails under any other key.
func TestRecordEncodeValidateRoundTrip(t *testing.T) {
	buf := make([]byte, RecordSize)
	EncodeRecord(buf, 42, 7)
	v, err := ValidateRecord(buf, 42)
	if err != nil {
		t.Fatalf("validate(42) failed: %v", err)
	}
	if v != 7 {
		t.Fatalf("version = %d, want 7", v)
	}
	if _, err := ValidateRecord(buf, 43); err == nil {
		t.Fatal("record for key 42 validated under key 43")
	}
}
