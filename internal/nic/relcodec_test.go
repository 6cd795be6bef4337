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

func (bytesCodec) Place(fabric.EndpointID, fabric.EndpointID, int, []byte) ([]byte, Placement, int) {
	return nil, nil, 0
}

// TestRelCodecCarriesEveryField: the envelope must carry the whole
// relFrame — go-back-N over a byte transport is only the protocol the
// sim fabric tests if no field stays behind. Every
// field gets a distinct non-zero value on the side of the codec that
// has it — the payload's encoding (head, body) going in, its decoding
// (inner) coming out — and the reflection check makes a field added
// later fail here until the codec carries it too. relData is the zero
// kind: an ACK frame carries a non-zero one.
func TestRelCodecCarriesEveryField(t *testing.T) {
	sent := relFrame{seq: 0x1111, ack: 0x2222, src: 0x4444, bytes: 0x5555, head: []byte("in"), body: []byte("ner")}
	want := sent
	want.head, want.body, want.inner = nil, nil, []byte("inner")
	ack := relFrame{kind: relAck, ack: 0x6666, src: 0x7777, bytes: 0x10}
	for i, typ := 0, reflect.TypeOf(sent); i < typ.NumField(); i++ {
		if typ.Field(i).Name == "kind" {
			continue
		}
		if reflect.ValueOf(sent).Field(i).IsZero() && reflect.ValueOf(want).Field(i).IsZero() {
			t.Fatalf("relFrame.%s is zero: give it a value here, and carry it in the envelope", typ.Field(i).Name)
		}
	}
	c := RelCodec(bytesCodec{})
	sc, ok := c.(SplitCodec)
	if !ok {
		t.Fatal("RelCodec over a SplitCodec is not one")
	}
	for _, tc := range []struct{ sent, want relFrame }{{sent, want}, {ack, ack}} {
		check := func(how string, got any, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", how, err)
			}
			if f := got.(*relFrame); !reflect.DeepEqual(*f, tc.want) {
				t.Fatalf("%s: got %+v, want %+v", how, *f, tc.want)
			}
		}
		enc, err := c.Encode(nil, &tc.sent)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decode(enc)
		check("Encode/Decode", got, err)

		head, body, err := sc.EncodeSplit(nil, &tc.sent)
		if err != nil {
			t.Fatal(err)
		}
		frame := append(head, body...)
		got, err = sc.DecodeOwned(frame, frame)
		check("EncodeSplit/DecodeOwned", got, err)
	}
}
