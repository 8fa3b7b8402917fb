package main

import (
	"strings"
	"testing"
	"time"
)

// okFlags is a baseline that must validate; each case perturbs it.
func okFlags() flagValues {
	return flagValues{
		bench:     "compress",
		chaos:     0,
		fleet:     0,
		shards:    4,
		interval:  512,
		scale:     200_000,
		count:     "instructions",
		randomize: "geometric",
		set:       map[string]bool{},
	}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*flagValues)
		wantErr string // "" = must pass
	}{
		{"defaults", func(v *flagValues) {}, ""},
		{"chaos in range", func(v *flagValues) { v.chaos = 0.5 }, ""},
		{"chaos one", func(v *flagValues) { v.chaos = 1 }, ""},
		{"chaos negative", func(v *flagValues) { v.chaos = -0.1 }, "-chaos"},
		{"chaos above one", func(v *flagValues) { v.chaos = 1.5 }, "-chaos"},
		{"fleet zero explicit", func(v *flagValues) { v.fleet = 0; v.set["fleet"] = true }, "-fleet"},
		{"fleet negative explicit", func(v *flagValues) { v.fleet = -2; v.set["fleet"] = true }, "-fleet"},
		{"fleet default zero ok", func(v *flagValues) { v.fleet = 0 }, ""},
		{"fleet positive", func(v *flagValues) { v.fleet = 8; v.set["fleet"] = true }, ""},
		{"shards zero explicit", func(v *flagValues) { v.shards = 0; v.set["shards"] = true }, "-shards"},
		{"deadline zero explicit", func(v *flagValues) { v.deadline = 0; v.set["deadline"] = true }, "-deadline"},
		{"deadline negative explicit", func(v *flagValues) { v.deadline = -time.Second; v.set["deadline"] = true }, "-deadline"},
		{"deadline unset zero ok", func(v *flagValues) { v.deadline = 0 }, ""},
		{"deadline positive", func(v *flagValues) { v.deadline = time.Minute; v.set["deadline"] = true }, ""},
		{"watchdog negative", func(v *flagValues) { v.watchdog = -1 }, "-watchdog"},
		{"watchdog zero disables", func(v *flagValues) { v.watchdog = 0 }, ""},
		{"interval below one", func(v *flagValues) { v.interval = 0.5 }, "-interval"},
		{"scale zero", func(v *flagValues) { v.scale = 0 }, "-scale"},
		{"resume without checkpoint", func(v *flagValues) { v.resume = true }, "-resume"},
		{"resume with checkpoint", func(v *flagValues) { v.resume = true; v.ckptDir = "/tmp/c" }, ""},
		{"no program", func(v *flagValues) { v.bench = "" }, "-bench <name>"},
		{"generated program", func(v *flagValues) { v.bench, v.gen = "", 3 }, ""},
		{"bench and gen", func(v *flagValues) { v.gen = 3 }, "both name the program"},
		{"count unknown", func(v *flagValues) { v.count = "cycles" }, "-count"},
		{"count opportunities", func(v *flagValues) { v.count = "opportunities" }, ""},
		{"randomize unknown", func(v *flagValues) { v.randomize = "poisson" }, "-randomize"},
		{"randomize fixed", func(v *flagValues) { v.randomize = "fixed" }, ""},
		// A flag is honoured or refused, never ignored.
		{"edges in fleet mode", func(v *flagValues) { v.fleet = 2; v.set["edges"] = true }, "-edges"},
		{"proc in fleet mode", func(v *flagValues) { v.fleet = 2; v.set["proc"] = true }, "-proc"},
		{"disasm on resume", func(v *flagValues) { v.resume = true; v.ckptDir = "/tmp/c"; v.set["disasm"] = true }, "-disasm"},
		{"chaos-seed in fleet mode", func(v *flagValues) { v.fleet = 2; v.set["chaos-seed"] = true }, "-chaos-seed"},
		{"edges on a single run", func(v *flagValues) { v.set["edges"] = true }, ""},
		{"shards without fleet", func(v *flagValues) { v.shards = 3; v.set["shards"] = true }, "-shards"},
		{"checkpoint without fleet", func(v *flagValues) { v.ckptDir = "/tmp/c"; v.set["checkpoint"] = true }, "-checkpoint"},
		{"shards and checkpoint in fleet mode", func(v *flagValues) {
			v.fleet, v.ckptDir = 2, "/tmp/c"
			v.set["fleet"], v.set["shards"], v.set["checkpoint"] = true, true, true
		}, ""},
		{"checkpoint on resume", func(v *flagValues) { v.resume = true; v.ckptDir = "/tmp/c"; v.set["checkpoint"] = true }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := okFlags()
			tc.mutate(&v)
			err := v.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error mentioning %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
