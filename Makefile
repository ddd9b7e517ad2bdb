# Tier-1 gate for warehousesim (documented in ROADMAP.md).
#
#   make check   — everything CI runs: vet, lint, build, race tests,
#                  gofmt, the shard engine's race tests, and the live
#                  introspection smoke
#   make lint    — whvet, the repo's own static-invariant suite
#                  (determinism, allocation, link-boundary, test-only
#                  API; DESIGN.md §11)
#   make test    — plain tests (the seed tier-1 command)
#   make bench   — every package's benchmarks with allocation reporting
#                  (timing is whperf's: cmd/whperf/run.sh; the substrate
#                  benchmarks' allocation bounds are gated by their
#                  packages' TestAllocBounds under make test/check)
#   make shard-race — the shard engine's tests under the race detector
#                     at GOMAXPROCS 1 and 4 (serial schedules hide
#                     different bugs than parallel ones)
#   make introspect-smoke — start whsim -http, assert /obs/windows,
#                     /obs/shards and /obs/energy serve their schemas
#   make cover      — per-package coverage, with an 80% floor on
#                     internal/obs/...
#   make fuzz       — every Fuzz* target in the tree, 10 s each

GO ?= go

.PHONY: check vet lint build test test-race fmt bench shard-race introspect-smoke cover fuzz

check: vet lint build test-race fmt shard-race introspect-smoke

vet:
	$(GO) vet ./...

# whvet statically enforces what the byte-identity tests only
# sample: no nondeterminism sources in model code, no unordered map
# iteration on export paths, net/http only behind the introspect
# boundary, allocation discipline in //perf:hotpath functions, the
# metric-name registry, and no exported API that only tests reach.
# Findings are suppressed only by reasoned //whvet:allow directives
# (see DESIGN.md §11).
lint:
	$(GO) run ./cmd/whvet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# The shard engine is the only package whose correctness depends on
# goroutine scheduling; -cpu 1,4 runs its race tests under both a
# serial and a genuinely parallel scheduler.
shard-race:
	$(GO) test -race -cpu 1,4 ./internal/des/shard/...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Introspection smoke: start whsim with the live endpoints on an
# ephemeral port, poll /obs/windows, /obs/shards and /obs/energy until
# they publish, and assert each serves its schema tag.
introspect-smoke:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"; kill $$pid 2>/dev/null || true' EXIT; \
	$(GO) build -o "$$tmp/whsim" ./cmd/whsim || exit 1; \
	: >"$$tmp/log"; \
	"$$tmp/whsim" -system emb1 -workload websearch -des -measure 600 \
		-shards 2 -enclosures 4 -boards 2 -slo-window 1s -energy-window 1s \
		-http 127.0.0.1:0 >/dev/null 2>"$$tmp/log" & pid=$$!; \
	addr=""; for i in $$(seq 1 50); do \
		addr="$$(sed -n 's|.*serving http://\([^ ]*\) .*|\1|p' "$$tmp/log" | head -1)"; \
		[ -n "$$addr" ] && break; sleep 0.2; \
	done; \
	[ -n "$$addr" ] || { echo "introspect-smoke: server never announced its address"; cat "$$tmp/log"; exit 1; }; \
	win=""; for i in $$(seq 1 100); do \
		win="$$(curl -sf "http://$$addr/obs/windows" 2>/dev/null)" && break; sleep 0.2; \
	done; \
	echo "$$win" | grep -q '"schema":"warehousesim-windows/v1"' || { \
		echo "introspect-smoke: /obs/windows missing schema: $$win"; exit 1; }; \
	sh="$$(curl -sf "http://$$addr/obs/shards")" || { echo "introspect-smoke: /obs/shards unreachable"; exit 1; }; \
	echo "$$sh" | grep -q '"schema":"warehousesim-shards/v1"' || { \
		echo "introspect-smoke: /obs/shards missing schema: $$sh"; exit 1; }; \
	echo "$$sh" | grep -q '"shards":2' || { \
		echo "introspect-smoke: /obs/shards does not report 2 shards: $$sh"; exit 1; }; \
	en=""; for i in $$(seq 1 100); do \
		en="$$(curl -sf "http://$$addr/obs/energy" 2>/dev/null)" && break; sleep 0.2; \
	done; \
	echo "$$en" | grep -q '"schema":"warehousesim-energy-live/v1"' || { \
		echo "introspect-smoke: /obs/energy missing schema: $$en"; exit 1; }; \
	kill $$pid 2>/dev/null; \
	echo "introspect-smoke: /obs/windows, /obs/shards and /obs/energy serve their schemas"

# Coverage with a floor on the observability packages: the windowed
# metrics plane is the byte-compared surface, so internal/obs/... must
# hold at least 80% statement coverage.
cover:
	@$(GO) test -cover ./... | tee /dev/stderr | \
	awk '/^ok/ && $$2 ~ /^warehousesim\/internal\/obs/ { \
		for (i = 1; i <= NF; i++) if ($$i == "coverage:") { \
			pct = $$(i+1); sub(/%$$/, "", pct); \
			if (pct + 0 < 80) { printf "cover: %s at %s%% (floor 80%%)\n", $$2, pct; bad = 1 } } } \
	END { exit bad }'

# go test -fuzz takes one target per run, so find every func Fuzz* in
# the tree's test files and fuzz each one in its own package for 10 s.
fuzz:
	@grep -rl --include='*_test.go' '^func Fuzz' . | sort | while read -r f; do \
		pkg="./$$(dirname "$${f#./}")"; \
		for name in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$$f"); do \
			echo "fuzz: $$name in $$pkg"; \
			$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime 10s "$$pkg" || exit 1; \
		done; \
	done

bench:
	$(GO) test -bench=. -benchmem -run=NONE ./...
