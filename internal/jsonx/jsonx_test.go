package jsonx

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// AppendFloat writes every finite float64 as json.Marshal does: the
// exponent cut-offs at 1e-6 and 1e21, both signs, zero and the
// extremes, and random bit patterns.
func TestAppendFloatMatchesMarshal(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.35, 1e-6, 9.99e-7, 1e-7, 2.5e-7, 1e20, 1e21, 1.5e21, -1e21,
		123456789, 1e100, math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		if v := math.Float64frombits(r.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			vals = append(vals, v)
		}
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, v); string(got) != string(want) {
			t.Fatalf("AppendFloat(%v) = %s, json.Marshal %s", v, got, want)
		}
	}
}

// The number reads accept a value only where encoding/json decodes the
// same one into the field's type, and read it as encoding/json does.
func TestParserNumbersMatchDecode(t *testing.T) {
	for _, lit := range []string{"0", "-0", "7", "-7", "007", "1.5", "1e3", "-", "", "+1", "9223372036854775807",
		"9223372036854775808", "-9223372036854775808", "-9223372036854775809", "18446744073709551615",
		"0.35", "-2.5e-7", "1E21", "1e+21", "1e400", "1e-400", ".5", "5.", "1e", "0x10", "01.5", "12345678901234567890"} {
		var wantInt int64
		intErr := json.Unmarshal([]byte(lit), &wantInt)
		p := NewParser([]byte(lit), nil)
		if got := p.Int("", math.MinInt64, math.MaxInt64); p.End() && (intErr != nil || got != wantInt) {
			t.Errorf("Int(%q) = %d, encoding/json %d, %v", lit, got, wantInt, intErr)
		}
		var wantUint uint64
		uintErr := json.Unmarshal([]byte(lit), &wantUint)
		p = NewParser([]byte(lit), nil)
		if got := p.Uint("", math.MaxUint64); p.End() && (uintErr != nil || got != wantUint) {
			t.Errorf("Uint(%q) = %d, encoding/json %d, %v", lit, got, wantUint, uintErr)
		}
		var wantFloat float64
		floatErr := json.Unmarshal([]byte(lit), &wantFloat)
		p = NewParser([]byte(lit), nil)
		if got := p.Float(""); p.End() && (floatErr != nil || math.Float64bits(got) != math.Float64bits(wantFloat)) {
			t.Errorf("Float(%q) = %v, encoding/json %v, %v", lit, got, wantFloat, floatErr)
		}
	}
}
