package nic

import (
	"reflect"
	"testing"

	"gompix/internal/fabric"
)

// bytesCodec carries a []byte payload as it is; as a SplitCodec the
// bytes are the body.
type bytesCodec struct{ ByteCodec }

func (bytesCodec) EncodeSplit(buf []byte, payload any) (head, body []byte, err error) {
	return buf, payload.([]byte), nil
}

func (bytesCodec) DecodeOwned(frame, data []byte) (any, error) { return data, nil }

func (bytesCodec) Place(fabric.EndpointID, int, []byte) ([]byte, Placement, int) { return nil, nil, 0 }

// TestRelCodecCarriesEveryField: the envelope must carry the whole
// relFrame — go-back-N over a byte transport is only the protocol the
// sim fabric tests if no field stays behind (floor once did). Every
// field gets a distinct non-zero value, and the reflection check makes
// a field added later fail here until the codec carries it too.
func TestRelCodecCarriesEveryField(t *testing.T) {
	// relAck because relData is the zero kind.
	want := relFrame{kind: relAck, seq: 0x1111, ack: 0x2222, floor: 0x3333, src: 0x4444, inner: []byte("inner"), bytes: 0x5555}
	v := reflect.ValueOf(want)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("relFrame.%s is zero: give it a value here, and carry it in the envelope", v.Type().Field(i).Name)
		}
	}
	c := RelCodec(bytesCodec{})
	check := func(how string, got any, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		if f := got.(*relFrame); !reflect.DeepEqual(*f, want) {
			t.Fatalf("%s: got %+v, want %+v", how, *f, want)
		}
	}
	enc, err := c.Encode(nil, &want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(enc)
	check("Encode/Decode", got, err)

	sc, ok := c.(SplitCodec)
	if !ok {
		t.Fatal("RelCodec over a SplitCodec is not one")
	}
	head, body, err := sc.EncodeSplit(nil, &want)
	if err != nil {
		t.Fatal(err)
	}
	frame := append(head, body...)
	got, err = sc.DecodeOwned(frame, frame)
	check("EncodeSplit/DecodeOwned", got, err)
}
