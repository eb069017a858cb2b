/* Checksum sink for timing emitted C (cc -include sink.h).
 *
 * The emitted program prints each output token with printf, which costs
 * far more than most programs' per-iteration compute. This header turns
 * the two printf calls in the emitted lam_output bodies into a fold of
 * the token's bits into a 64-bit checksum (FNV-1a over 64-bit words:
 * one multiply per token, and any single changed token changes it); at exit the program
 * prints one line, "perfbench-sink <count> <checksum>", which the
 * benchmark checks against the interpreter. Every other print in
 * emitted C goes through fprintf and is untouched. NaNs fold as one
 * canonical pattern and -0.0 folds as its own bits. */
#ifndef PERFBENCH_SINK_H
#define PERFBENCH_SINK_H

#include <inttypes.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

static uint64_t perfbench_sink_count;
static uint64_t perfbench_sink_hash = UINT64_C(0xcbf29ce484222325);

static inline void perfbench_sink_bits(uint64_t b) {
  perfbench_sink_hash = (perfbench_sink_hash ^ b) * UINT64_C(0x100000001b3);
  ++perfbench_sink_count;
}
static inline void perfbench_sink_int(int64_t v) {
  perfbench_sink_bits((uint64_t)v);
}
static inline void perfbench_sink_double(double v) {
  uint64_t b = UINT64_C(0x7ff8000000000000);
  if (v == v)
    memcpy(&b, &v, sizeof b);
  perfbench_sink_bits(b);
}

static void perfbench_sink_report(void) {
  fprintf(stdout, "perfbench-sink %" PRIu64 " %016" PRIx64 "\n",
          perfbench_sink_count, perfbench_sink_hash);
}
__attribute__((constructor)) static void perfbench_sink_install(void) {
  atexit(perfbench_sink_report);
}

#define printf(fmt, v)                                                     \
  _Generic((v), double: perfbench_sink_double, default: perfbench_sink_int)(v)

#endif
