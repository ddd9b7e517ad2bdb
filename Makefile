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
#   make shard-race — the shard engine's and the fanout pool's tests,
#                     and internal/obs's chunked-export tests, under the
#                     race detector at GOMAXPROCS 1 and 4 (serial
#                     schedules hide different bugs than parallel ones)
#   make introspect-smoke — start whsim -http on a rack, assert
#                     /obs/windows and /obs/energy serve their schemas
#                     with every part, /obs counts requests mid-run, and
#                     the retired /obs/shards answers 404
#   make cover      — per-package coverage, with an 80% floor on
#                     internal/obs/..., internal/des/... and
#                     internal/stats (CI runs it after make check)
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

# The shard engine, the fanout worker pool and the obs export's chunked
# formatting are the code whose correctness depends on goroutine
# scheduling; -cpu 1,4 runs their race tests under both a serial and a
# genuinely parallel scheduler.
shard-race:
	$(GO) test -race -cpu 1,4 ./internal/des/shard/... ./internal/fanout/...
	$(GO) test -race -cpu 1,4 -run 'WriteJSONLChunk' ./internal/obs

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Introspection smoke: start whsim on a 4x2 rack with the live endpoints
# on an ephemeral port, poll /obs/windows and /obs/energy until they
# publish, assert each serves its schema tag and lists all 5 parts (4
# enclosures plus the rack-global part, handed over by OnProbeTick),
# assert /obs lists a "requests" counter while the run is still in its
# replay phase (read from the parts' sinks before they fold), and
# assert the retired /obs/shards route answers 404.
introspect-smoke:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"; kill $$pid 2>/dev/null || true' EXIT; \
	$(GO) build -o "$$tmp/whsim" ./cmd/whsim || exit 1; \
	: >"$$tmp/log"; \
	"$$tmp/whsim" -system emb1 -workload websearch -des -measure 600 \
		-enclosures 4 -boards 2 -slo-window 1s -energy-window 1s \
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
	n="$$(echo "$$win" | grep -o '"part":' | wc -l)"; [ "$$n" -eq 5 ] || { \
		echo "introspect-smoke: /obs/windows lists $$n parts, want 5 (4 enclosures + rack-global): $$win"; exit 1; }; \
	code="$$(curl -s -o /dev/null -w '%{http_code}' "http://$$addr/obs/shards")"; \
	[ "$$code" = 404 ] || { echo "introspect-smoke: /obs/shards answered $$code, want 404"; exit 1; }; \
	en=""; for i in $$(seq 1 100); do \
		en="$$(curl -sf "http://$$addr/obs/energy" 2>/dev/null)" && break; sleep 0.2; \
	done; \
	echo "$$en" | grep -q '"schema":"warehousesim-energy-live/v1"' || { \
		echo "introspect-smoke: /obs/energy missing schema: $$en"; exit 1; }; \
	n="$$(echo "$$en" | grep -o '"part":' | wc -l)"; [ "$$n" -eq 5 ] || { \
		echo "introspect-smoke: /obs/energy lists $$n parts, want 5 (4 enclosures + rack-global): $$en"; exit 1; }; \
	live=""; for i in $$(seq 1 100); do \
		live="$$(curl -sf "http://$$addr/obs" 2>/dev/null)"; \
		echo "$$live" | grep -q '"requests":' && break; sleep 0.2; \
	done; \
	echo "$$live" | grep -q '"phase":"replay"' && echo "$$live" | grep -q '"requests":' || { \
		echo "introspect-smoke: /obs lists no requests counter mid-run: $$live"; exit 1; }; \
	kill $$pid 2>/dev/null; \
	echo "introspect-smoke: /obs/windows and /obs/energy serve their schemas with 5 parts each; /obs counts requests mid-run; /obs/shards is 404"

# Coverage with a floor: the observability packages (the windowed
# metrics plane is the byte-compared surface), the event kernel and the
# statistics behind every QoS verdict must each hold at least 80%
# statement coverage.
cover:
	@$(GO) test -cover ./... | tee /dev/stderr | \
	awk '/^FAIL/ { bad = 1 } /^ok/ && $$2 ~ /^warehousesim\/internal\/((obs|des)(\/|$$)|stats$$)/ { \
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
