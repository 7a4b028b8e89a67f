package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/fault"
	"reactivenoc/internal/workload"
)

// fill sets every leaf JSON carries to a value unlike its zero — the
// fingerprint test's mutate, with negative numbers so signs travel too —
// giving each slice and map one element and allocating every pointer. It
// follows JSON's field rules (tagged "-" and unexported fields skipped,
// embedded structs walked in place) and returns the paths it set.
func fill(t *testing.T, v reflect.Value, path string, n *int) []string {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-int64(*n % 100))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n%200) + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(-float64(*n) - 0.125)
	case reflect.String:
		v.SetString("s" + strconv.Itoa(*n))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		return fill(t, v.Elem(), path, n)
	case reflect.Array:
		var paths []string
		for i := 0; i < v.Len(); i++ {
			paths = append(paths, fill(t, v.Index(i), path+"["+strconv.Itoa(i)+"]", n)...)
		}
		return paths
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		return fill(t, v.Index(0), path+"[0]", n)
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		e := reflect.New(v.Type().Elem()).Elem()
		paths := fill(t, e, path+"[k]", n)
		v.SetMapIndex(reflect.ValueOf("k"+strconv.Itoa(*n)).Convert(v.Type().Key()), e)
		return paths
	case reflect.Struct:
		var paths []string
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			embedded := f.Anonymous && f.Type.Kind() == reflect.Struct
			if f.Tag.Get("json") == "-" || !f.IsExported() && !embedded {
				continue
			}
			paths = append(paths, fill(t, v.Field(i), path+"."+f.Name, n)...)
		}
		return paths
	default:
		t.Fatalf("%s: %s — a kind the binary result form cannot carry", path, v.Kind())
	}
	return []string{path}
}

// TestResultsCodecCarriesEveryLeaf: every leaf reachable from chip.Results
// survives the binary round trip, and decodes to what JSON decodes it to. A
// field of a kind the codec cannot carry, or a type with its own JSON
// methods, fails here (planning fails) rather than in a served run.
func TestResultsCodecCarriesEveryLeaf(t *testing.T) {
	if resultsPlanErr != nil {
		t.Fatalf("chip.Results has no binary form: %v", resultsPlanErr)
	}
	var want chip.Results
	var n int
	paths := fill(t, reflect.ValueOf(&want).Elem(), "Results", &n)
	if len(paths) < 150 {
		t.Fatalf("only %d leaves set: walker broken?", len(paths))
	}
	bin, err := encodeResults(&want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeResults(bin)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, &want) {
		for _, p := range diffPaths(reflect.ValueOf(*got), reflect.ValueOf(want), "Results") {
			t.Errorf("%s did not survive the binary round trip", p)
		}
		t.FailNow()
	}
	js, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	var viaJSON chip.Results
	if err := json.Unmarshal(js, &viaJSON); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&viaJSON, got) {
		t.Fatalf("binary and JSON round trips disagree on %v", diffPaths(reflect.ValueOf(viaJSON), reflect.ValueOf(*got), "Results"))
	}
	t.Logf("%d leaves: %d bytes of binary, %d of JSON", len(paths), len(bin), len(js))
}

// diffPaths names the leaves where a and b differ.
func diffPaths(a, b reflect.Value, path string) []string {
	if a.Kind() != b.Kind() {
		return []string{path}
	}
	switch a.Kind() {
	case reflect.Struct:
		var out []string
		for i := 0; i < a.NumField(); i++ {
			if a.Type().Field(i).IsExported() || a.Type().Field(i).Anonymous {
				out = append(out, diffPaths(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name)...)
			}
		}
		return out
	case reflect.Array, reflect.Slice:
		if a.Len() != b.Len() || a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() {
			return []string{path}
		}
		var out []string
		for i := 0; i < a.Len(); i++ {
			out = append(out, diffPaths(a.Index(i), b.Index(i), path+"["+strconv.Itoa(i)+"]")...)
		}
		return out
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return []string{path}
			}
			return nil
		}
		return diffPaths(a.Elem(), b.Elem(), path)
	}
	if !reflect.DeepEqual(a.Interface(), b.Interface()) {
		return []string{path}
	}
	return nil
}

// TestCodecPlanRefusesWhatItCannotCarry: planning fails on every type the
// binary form cannot carry as JSON does, and carries what it can.
func TestCodecPlanRefusesWhatItCannotCarry(t *testing.T) {
	type selfRef struct {
		N    int
		Next *selfRef
	}
	type inner struct{ A int }
	for _, tc := range []struct {
		v    any
		want string // "" = plans
	}{
		{struct{ X any }{}, "cannot carry"},
		{struct{ C chan int }{}, "cannot carry"},
		{struct{ F func() }{}, "cannot carry"},
		{struct {
			F func() `json:"-"`
			N int
		}{}, ""},
		{struct{ M map[int]int }{}, "string keys only"},
		{struct{ T time.Time }{}, "own"},
		{struct{ E []struct{} }{}, "carry no bytes"},
		{struct{ *inner }{}, "embedded pointers"},
		{struct {
			inner
			hidden int
		}{}, ""},
		{selfRef{}, ""},
	} {
		_, _, err := planResults(reflect.TypeOf(tc.v))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%T: %v", tc.v, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%T planned with error %v, want one containing %q", tc.v, err, tc.want)
		}
	}
}

// sampleResults runs a short traced, sampled 16-core run.
func sampleResults(t testing.TB) *chip.Results {
	t.Helper()
	spec := smallSpec(3)
	spec.Variant, _ = config.ByName("Complete_NoAck")
	spec.SampleEvery = 200
	spec.TraceCap = 64
	r, err := chip.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestResultDecodeRejectsMalformed: every truncation of a real encoding,
// a trailing byte, a non-canonical bool and a count the input cannot hold
// are errors, and an absurd count allocates nothing for its elements.
func TestResultDecodeRejectsMalformed(t *testing.T) {
	bin, err := encodeResults(sampleResults(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeResults(bin); err != nil {
		t.Fatalf("the intact encoding: %v", err)
	}
	for i := 0; i < len(bin); i++ {
		if _, err := decodeResults(bin[:i]); err == nil {
			t.Fatalf("a %d-byte truncation of %d bytes decoded", i, len(bin))
		}
	}
	if _, err := decodeResults(append(bytes.Clone(bin), 0)); err == nil {
		t.Fatal("a trailing byte was accepted")
	}
	// Results opens with Spec.Chip.Name: a string length, then the bytes.
	huge := binary.AppendUvarint(nil, 1<<62)
	if _, err := decodeResults(append(huge, bin...)); err == nil {
		t.Fatal("a 2^62-byte string was accepted")
	}
	// A zero Results encodes as zero bytes only, so Spec.Audit's byte is
	// the one 1 in the encoding of a zero Results with Audit set.
	var a, b chip.Results
	b.Spec.Audit = true
	ea, _ := encodeResults(&a)
	eb, _ := encodeResults(&b)
	at := bytes.IndexByte(eb, 1)
	if at < 0 || ea[at] != 0 {
		t.Fatal("cannot locate Spec.Audit's byte")
	}
	eb[at] = 2
	if _, err := decodeResults(eb); err == nil {
		t.Fatal("bool byte 2 was accepted")
	}
	// A Cores count of 2^40 in a zero Results: Cores follows Spec and
	// Cycles, and the count is refused before anything is allocated for it.
	specCodec, _, err := planResults(reflect.TypeOf(chip.Spec{}))
	if err != nil {
		t.Fatal(err)
	}
	cores := len(binary.AppendVarint(specCodec.enc(nil, reflect.ValueOf(a.Spec)), 0))
	if ea[cores] != 0 {
		t.Fatalf("byte %d is %d, not a nil Cores", cores, ea[cores])
	}
	absurd := append(bytes.Clone(ea[:cores]), binary.AppendUvarint(nil, 1<<40+1)...)
	absurd = append(absurd, ea[cores+1:]...)
	var decErr error
	if got := allocatedBy(func() { _, decErr = decodeResults(absurd) }); got > 64<<10 {
		t.Fatalf("an absurd count allocated %d bytes", got)
	}
	if decErr == nil || !strings.Contains(decErr.Error(), "count") {
		t.Fatalf("an absurd Cores count decoded with error %v", decErr)
	}
}

// golden16 lists the 16-core cells of internal/chip's golden matrix
// (golden_test.go), as workload/variant.
var golden16 = map[string][]string{
	"micro": {"Baseline", "Fragmented", "Complete", "Complete_NoAck", "Reuse_NoAck", "Timed_NoAck",
		"Slack_1_NoAck", "Slack_2_NoAck", "Slack_4_NoAck", "SlackDelay_1_NoAck", "Postponed_1_NoAck", "Ideal",
		"SDM", "SDM_2", "SDM_8", "DynamicVC", "Speculative", "Probe_DejaVu"},
	"canneal": {"Baseline", "Fragmented", "Complete", "Complete_NoAck", "Reuse_NoAck", "Timed_NoAck",
		"Slack_1_NoAck", "Slack_2_NoAck", "Slack_4_NoAck", "SlackDelay_1_NoAck", "Postponed_1_NoAck", "Ideal",
		"Probe_DejaVu"},
	"hotspot": {"Baseline", "Reuse_NoAck", "Timed_NoAck", "SDM", "DynamicVC"},
}

// TestBinaryAndJSONAgree: the binary and JSON forms decode to equal
// Results on every 16-core golden spec, on a sampled and traced run
// (Series, Trace) and on a Baseline run (nil Circ).
func TestBinaryAndJSONAgree(t *testing.T) {
	check := func(t *testing.T, r *chip.Results) {
		bin, err := encodeResults(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeResults(bin)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var want chip.Results
		if err := json.Unmarshal(js, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("the forms disagree on %v", diffPaths(reflect.ValueOf(*got), reflect.ValueOf(want), "Results"))
		}
	}
	t.Run("sampled-traced", func(t *testing.T) {
		r := sampleResults(t)
		if len(r.Series) == 0 || len(r.Trace) == 0 || r.Circ == nil {
			t.Fatalf("the run kept %d windows, %d trace events, circuit stats %v", len(r.Series), len(r.Trace), r.Circ != nil)
		}
		check(t, r)
	})
	t.Run("baseline", func(t *testing.T) {
		r, err := chip.Run(smallSpec(4))
		if err != nil {
			t.Fatal(err)
		}
		if r.Circ != nil {
			t.Fatal("a Baseline run carries circuit stats")
		}
		check(t, r)
	})
	for wn, variants := range golden16 {
		w, ok := workload.ByName(wn)
		if !ok {
			t.Fatalf("unknown workload %s", wn)
		}
		for _, vn := range variants {
			t.Run("16-core/"+wn+"/"+vn, func(t *testing.T) {
				t.Parallel()
				v, ok := config.ByName(vn)
				if !ok {
					t.Fatalf("unknown variant %s", vn)
				}
				spec := chip.DefaultSpec(config.Chip16(), v, w)
				spec.WarmupOps, spec.MeasureOps, spec.Seed = 600, 2400, 7
				r, err := chip.Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				check(t, r)
			})
		}
	}
}

// TestClientReadsEitherForm: a Client asks for the binary form and gets
// it, with a Content-Length that matches, and decodes the same Results the
// JSON body carries; a request without that Accept gets JSON; a server
// that answers only JSON (an older one) is read as JSON; a failed job
// comes back as its structured error either way.
func TestClientReadsEitherForm(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.Start()
	var jsonOnly bool
	h := s.Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if jsonOnly {
			r.Header.Del("Accept")
		}
		h.ServeHTTP(w, r)
	}))
	defer hs.Close()
	cl := NewClient(hs.URL)
	ctx := context.Background()
	spec := smallSpec(12)
	spec.SampleEvery = 300
	miss, err := cl.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Submit(ctx, spec)
	if err != nil || !st.Cached || st.Result == nil {
		t.Fatalf("the repeat was not a hit with a result: %+v, %v", st, err)
	}
	j, _ := s.Job(st.ID)
	_, r := j.status()
	if r.bin == nil {
		t.Fatal("the client's hit did not ask for the binary form")
	}
	jsonOnly = true
	viaJSON, err := cl.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*chip.Results{"the miss's fetch": miss, "the hit": st.Result} {
		if !reflect.DeepEqual(got, viaJSON.Result) {
			t.Errorf("%s decoded other Results than JSON: %v", name, diffPaths(reflect.ValueOf(*got), reflect.ValueOf(*viaJSON.Result), "Results"))
		}
	}
	st.Result, viaJSON.Result = nil, nil
	if !reflect.DeepEqual(st, viaJSON) {
		t.Errorf("the binary status header %+v differs from JSON's %+v", st, viaJSON)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID, nil)
	req.Header.Set("Accept", resultsMediaType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != resultsMediaType {
		t.Fatalf("binary Accept answered %q", ct)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte binary body", cl, rec.Body.Len())
	}
	if plain := serveHTTP(h, http.MethodGet, "/v1/jobs/"+st.ID, nil); plain.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("a request without Accept got %q", plain.Header().Get("Content-Type"))
	}

	failing := smallSpec(13)
	failing.Fault = &fault.Plan{Class: fault.StallLink, After: 300}
	failing.WatchdogStall = 2000
	for _, old := range []bool{false, true} {
		jsonOnly = old
		if _, err := cl.Run(ctx, failing); chip.AsRunError(err) == nil {
			t.Fatalf("a failed job (JSON only: %v) came back as %v, not a structured run error", old, err)
		}
	}
}

// BenchmarkResultDecode compares decoding a serve16 job's Results (16-core
// Complete_NoAck micro, 200 + 500 ops) from the binary form and from JSON.
func BenchmarkResultDecode(b *testing.B) {
	spec := smallSpec(11)
	spec.Variant, _ = config.ByName("Complete_NoAck")
	r, err := chip.Run(spec)
	if err != nil {
		b.Fatal(err)
	}
	bin, _ := encodeResults(r)
	js, _ := json.Marshal(r)
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(bin)))
		for i := 0; i < b.N; i++ {
			if _, err := decodeResults(bin); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(js)))
		for i := 0; i < b.N; i++ {
			var out chip.Results
			if err := json.Unmarshal(js, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestConcurrentBinaryFetchesShareOneEncoding: fetches racing to be the
// first to ask for a finished job's binary form all write the one encoding
// the result stores.
func TestConcurrentBinaryFetchesShareOneEncoding(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.Start()
	h := s.Handler()
	miss := decodeStatus(t, serveHTTP(h, http.MethodPost, "/v1/jobs", submitBody(t, smallSpec(14))))
	waitTerminal(t, s, miss.ID)
	bodies := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+miss.ID, nil)
			req.Header.Set("Accept", resultsMediaType)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			_, bodies[i], _ = bytes.Cut(rec.Body.Bytes(), []byte("\n"))
		}(i)
	}
	wg.Wait()
	j, _ := s.Job(miss.ID)
	_, r := j.status()
	for i, b := range bodies {
		if len(b) == 0 || !bytes.Equal(b, r.bin) {
			t.Fatalf("fetch %d wrote %d bytes, not the stored %d-byte encoding", i, len(b), len(r.bin))
		}
	}
}

// shapes is a type with every leaf width, nesting and recursion the codec
// plans, beyond what chip.Results holds today.
type shapes struct {
	I8    int8
	I16   int16
	I32   int32
	I     int
	U8    uint8
	U16   uint16
	U32   uint32
	U     uint
	U64   uint64
	B     bool
	F     float64
	S     string
	A     [3]int64
	Mixed [2]struct {
		N int64
		F float64
		S string
	}
	Words  []int64
	Floats []float64
	Empty  []float64
	Nested []shapes
	Next   *shapes
	Counts map[string]int64
	Named  map[string][2]int16
	embeddedShape
}

type embeddedShape struct {
	E1     int64
	hidden int64 // JSON skips it: E2 is decoded at its own offset, not the next word
	E2     int64
}

// TestCodecCarriesOtherShapes: every leaf width (int and uint at the
// platform's), arrays, nested and embedded structs, recursion through a
// pointer and a slice, empty and nil slices, and maps other than counters
// survive the round trip; a varint wider than its field is an error, not a
// truncation.
func TestCodecCarriesOtherShapes(t *testing.T) {
	c, _, err := planResults(reflect.TypeOf(shapes{}))
	if err != nil {
		t.Fatal(err)
	}
	decode := func(b []byte, out *shapes) error {
		d := &decoder{b: b}
		if err := c.dec(d, unsafe.Pointer(out)); err != nil {
			return err
		}
		if d.left() != 0 {
			return fmt.Errorf("%d bytes past the end", d.left())
		}
		return nil
	}
	var want shapes
	var n int
	for i := 0; i < reflect.TypeOf(want).NumField(); i++ {
		if f := reflect.TypeOf(want).Field(i); f.Name != "Nested" && f.Name != "Next" {
			fill(t, reflect.ValueOf(&want).Elem().Field(i), f.Name, &n)
		}
	}
	want.I8, want.I16, want.I32 = math.MinInt8, math.MaxInt16, math.MinInt32
	want.U8, want.U16, want.U32, want.U64 = math.MaxUint8, math.MaxUint16, math.MaxUint32, math.MaxUint64
	want.hidden = 0
	want.Empty = []float64{} // empty is not nil, as in JSON
	inner := want
	want.Next = &inner
	want.Nested = []shapes{inner, {}}
	var got shapes
	bin := c.enc(nil, reflect.ValueOf(want))
	if err := decode(bin, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the round trip changed %v", diffPaths(reflect.ValueOf(got), reflect.ValueOf(want), "shapes"))
	}
	for i := range bin {
		if err := decode(bin[:i], new(shapes)); err == nil {
			t.Fatalf("a %d-byte truncation of %d bytes decoded", i, len(bin))
		}
	}
	// I8 is the first field: 200 is a varint an int8 cannot hold.
	wide := append(binary.AppendVarint(nil, 200), bin[1:]...)
	if err := decode(wide, new(shapes)); err == nil || !strings.Contains(err.Error(), "overflows int8") {
		t.Fatalf("200 into an int8 decoded with error %v", err)
	}
}
