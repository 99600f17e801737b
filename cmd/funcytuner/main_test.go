package main

import (
	"io"
	"strings"
	"testing"
)

func TestParseFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring; empty = must succeed
		check   func(t *testing.T, cfg cliConfig)
	}{
		{
			name: "defaults",
			args: nil,
			check: func(t *testing.T, cfg cliConfig) {
				if cfg.samples != 1000 || cfg.topx != 50 || !cfg.cache {
					t.Errorf("cfg = %+v", cfg)
				}
				if cfg.technique != "" || cfg.warmStart {
					t.Errorf("technique/warmStart defaults wrong: %+v", cfg)
				}
			},
		},
		{
			name: "explicit-cfr",
			args: []string{"-technique=cfr"},
			check: func(t *testing.T, cfg cliConfig) {
				if cfg.technique != "cfr" {
					t.Errorf("technique = %q", cfg.technique)
				}
			},
		},
		{
			name: "cfr-with-adaptive",
			args: []string{"-technique=cfr", "-adaptive"},
			check: func(t *testing.T, cfg cliConfig) {
				if !cfg.adaptive {
					t.Errorf("adaptive = false")
				}
			},
		},
		{
			name: "bo",
			args: []string{"-technique=bo"},
			check: func(t *testing.T, cfg cliConfig) {
				if cfg.technique != "bo" {
					t.Errorf("technique = %q", cfg.technique)
				}
			},
		},
		{
			name: "ga-warm-start-with-repo",
			args: []string{"-technique=ga", "-warm-start", "-repo=/tmp/ft-repo"},
			check: func(t *testing.T, cfg cliConfig) {
				if cfg.technique != "ga" || !cfg.warmStart || cfg.repoPath != "/tmp/ft-repo" {
					t.Errorf("cfg = %+v", cfg)
				}
			},
		},
		{name: "unknown-technique", args: []string{"-technique=annealing"}, wantErr: "-technique must be cfr, bo or ga"},
		{
			name: "bo-with-adaptive",
			args: []string{"-technique=bo", "-adaptive"},
			check: func(t *testing.T, cfg cliConfig) {
				if cfg.technique != "bo" || !cfg.adaptive {
					t.Errorf("cfg = %+v", cfg)
				}
			},
		},
		{name: "ga-with-compare", args: []string{"-technique=ga", "-compare"}, wantErr: "incompatible with -compare"},
		{name: "warm-start-with-adaptive", args: []string{"-technique=bo", "-adaptive", "-warm-start", "-repo=/tmp/r"}, wantErr: "-warm-start applies only to plain tuning"},
		{name: "warm-start-without-repo", args: []string{"-technique=bo", "-warm-start"}, wantErr: "-warm-start requires -repo"},
		{name: "warm-start-without-technique", args: []string{"-warm-start", "-repo=/tmp/r"}, wantErr: "-warm-start requires -technique bo or ga"},
		{name: "warm-start-with-cfr", args: []string{"-technique=cfr", "-warm-start", "-repo=/tmp/r"}, wantErr: "-warm-start requires -technique bo or ga"},
		{name: "negative-size", args: []string{"-size=-1"}, wantErr: "-size must be >= 0"},
		{name: "negative-steps", args: []string{"-steps=-1"}, wantErr: "-steps must be >= 0"},
		{name: "stray-args", args: []string{"CL"}, wantErr: "unexpected arguments"},
		{name: "unknown-flag", args: []string{"-bogus"}, wantErr: "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := parseFlags(tc.args, io.Discard)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if tc.check != nil {
					tc.check(t, cfg)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got config %+v", tc.wantErr, cfg)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}
