package dsweep

import (
	"context"
	"flag"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/faultnet"
	"securepki.org/registrarsec/internal/simtime"
)

// TestEveryDefinitionFieldIsFingerprinted: the fingerprint is an encoding of
// the spec, so perturbing any field changes it — except a field tagged as
// not shaping the sweep's bytes, and Workers is the only one.
func TestEveryDefinitionFieldIsFingerprinted(t *testing.T) {
	// Every field away from its zero value, so normalization fills nothing.
	base := WorldSpec{
		ScaleDiv: 4000, Seed: 2, Sample: 50, SampleSeed: 3, Workers: 4, Retries: 5, Resweeps: 1,
		Cache: true, Dedup: true, FaultFrac: 0.5, FaultLoss: 0.1, FaultSeed: 6,
		Rules: []faultnet.Rule{{Pattern: "*.example", Loss: 0.25}},
	}
	days := []simtime.Day{simtime.End}
	want := base.Fingerprint(days, 2, 8)
	var taggedOut []string
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		perturbed := base
		f := reflect.ValueOf(&perturbed).Elem().Field(i)
		if f.IsZero() {
			t.Fatalf("%s: the base spec leaves it zero", typ.Field(i).Name)
		}
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.125)
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Slice:
			rule := base.Rules[0]
			rule.Loss += 0.125
			f.Set(reflect.ValueOf([]faultnet.Rule{rule}))
		default:
			t.Fatalf("%s: no perturbation for kind %s", typ.Field(i).Name, f.Kind())
		}
		changed := perturbed.Fingerprint(days, 2, 8) != want
		if typ.Field(i).Tag.Get("fingerprint") == "-" {
			taggedOut = append(taggedOut, typ.Field(i).Name)
			if changed {
				t.Errorf("%s is tagged out of the fingerprint but changes it", typ.Field(i).Name)
			}
		} else if !changed {
			t.Errorf("%s shapes the sweep but not its fingerprint", typ.Field(i).Name)
		}
	}
	if !reflect.DeepEqual(taggedOut, []string{"Workers"}) {
		t.Errorf("fields tagged out of the fingerprint: %v, want only Workers", taggedOut)
	}
	for name, fp := range map[string]string{
		"days":   base.Fingerprint([]simtime.Day{simtime.End - 1}, 2, 8),
		"shards": base.Fingerprint(days, 3, 8),
		"chunk":  base.Fingerprint(days, 2, 9),
	} {
		if fp == want {
			t.Errorf("the %s do not change the fingerprint", name)
		}
	}
	if base.Fingerprint(days, 2, 0) != base.Fingerprint(days, 2, 4096) {
		t.Error("chunk 0 and the default chunk size it selects fingerprint differently")
	}
}

// TestPlanFlagsRefuseUnorderedDays: -days must ascend, so a sweep writes its
// archive oldest section first.
func TestPlanFlagsRefuseUnorderedDays(t *testing.T) {
	for days, want := range map[string]string{
		"2016-06-01,2016-12-31": "",
		"2016-12-31,2016-06-01": "must ascend",
		"2016-06-01,2016-06-01": "must ascend",
	} {
		fs := flag.NewFlagSet("", flag.ContinueOnError)
		planOf := RegisterPlanFlags(fs)
		if err := fs.Parse([]string{"-days", days}); err != nil {
			t.Fatal(err)
		}
		_, err := planOf()
		if (want == "" && err != nil) || (want != "" && (err == nil || !strings.Contains(err.Error(), want))) {
			t.Errorf("-days %s: err %v, want %q", days, err, want)
		}
	}
}

// TestClientCallsAreBounded: a coordinator that accepts the connection and
// never answers costs a control-plane call its budget, not forever, and the
// worker's Run surfaces the failure.
func TestClientCallsAreBounded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // held open, never answered
		}
	}()

	client := &Client{Base: "http://" + ln.Addr().String(), budget: 100 * time.Millisecond}
	start := time.Now()
	if _, err := client.Lease(context.Background(), "w1"); err == nil {
		t.Fatal("lease from a silent coordinator succeeded")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("Lease took %v against a 100ms budget", took)
	}

	w, err := NewWorker(WorkerConfig{Name: "w1", Coord: client, Store: openStore(t), StreamSetup: testStreamSetup(t, nil, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "fetching plan") {
		t.Errorf("Run against a silent coordinator: %v", err)
	}
}
