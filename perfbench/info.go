package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"gdprstore/pkg/gdprkv"
)

// info is one INFO reply: every field by name, and per command its call
// count and total handler microseconds from the commandstats section.
type info struct {
	fields map[string]string
	calls  map[string]float64
	usec   map[string]float64
}

func readInfo(ctx context.Context, c *gdprkv.Client) (info, error) {
	text, err := c.Info(ctx, "")
	if err != nil {
		return info{}, fmt.Errorf("INFO: %w", err)
	}
	return parseInfo(text)
}

func parseInfo(text string) (info, error) {
	in := info{fields: map[string]string{}, calls: map[string]float64{}, usec: map[string]float64{}}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			return info{}, fmt.Errorf("INFO line %q has no ':'", line)
		}
		if cmd, isCmd := strings.CutPrefix(k, "cmdstat_"); isCmd {
			for _, kv := range strings.Split(v, ",") {
				name, val, _ := strings.Cut(kv, "=")
				f, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return info{}, fmt.Errorf("INFO %s: %q: %w", k, kv, err)
				}
				switch name {
				case "calls":
					in.calls[cmd] = f
				case "usec":
					in.usec[cmd] = f
				}
			}
			continue
		}
		in.fields[k] = v
	}
	return in, nil
}

// num returns a numeric field, 0 when the section is absent (a layer the
// workload does not enable).
func (in info) num(name string) float64 {
	f, _ := strconv.ParseFloat(in.fields[name], 64)
	return f
}

// delta returns after - before for a numeric field.
func delta(before, after info, name string) float64 { return after.num(name) - before.num(name) }

// cmdMeanUS is the mean handler time of cmd between two snapshots.
func cmdMeanUS(before, after info, cmd string) (mean float64, calls float64) {
	calls = after.calls[cmd] - before.calls[cmd]
	if calls <= 0 {
		return 0, 0
	}
	return (after.usec[cmd] - before.usec[cmd]) / calls, calls
}
