package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// hdQuantile is the Harrell–Davis estimate of the q-quantile of v: the mean
// of all order statistics, weighted by a Beta((n+1)q, (n+1)(1-q))
// distribution over their ranks. Cell wall times fall into one cluster per
// application, and a quantile read off one or two order statistics jumps
// with whichever extreme cells border a gap between clusters; the weighted
// estimate moves only as the whole neighbourhood of the quantile moves.
func hdQuantile(v []float64, q float64) float64 {
	n := len(v)
	if n < 2 {
		return quantile(v, q)
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est, prev float64
	for i := 1; i <= n; i++ {
		cur := betaInc(a, b, float64(i)/float64(n))
		est += (cur - prev) * s[i-1]
		prev = cur
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const eps, tiny = 1e-15, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 10000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// peakRSSMiB returns the process's peak resident set size (VmHWM) in MiB,
// falling back to the Go runtime's total obtained memory where /proc is
// unavailable.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / mib
}
