# Development targets. The tier-1 verification command (ROADMAP.md) is
# `make check`, which runs both the unit tests and the benchmark suite.

PYTHON ?= python
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: test bench bench-e2e check lint examples profile clean

## Unit tests only (~45 s)
test:
	$(PYTHON) -m pytest tests -q

## Paper-figure benchmark suite (a few minutes; REPRO_BENCH_EVENTS scales it)
bench:
	$(PYTHON) -m pytest benchmarks -q

## End-to-end benchmark: 5 runs of each workload, for bench/compare.py
bench-e2e:
	$(PYTHON) bench/run.py --seed 1 --repeat 5 --out bench/out/e2e.json

## Tier-1 verification: the full suite, fail-fast
check:
	$(PYTHON) -m pytest -x -q

## Static checks: ruff if installed, else a strict byte-compile pass
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; running compileall instead"; \
		$(PYTHON) -m compileall -q -f src tests benchmarks examples; \
	fi

## cProfile the fig6 retrieval workload (top-25 cumulative)
profile:
	$(PYTHON) benchmarks/profile_retrieval.py

## Run every example end-to-end
examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

clean:
	find . -type d -name __pycache__ -exec rm -rf {} +
	rm -rf .pytest_cache .benchmarks build *.egg-info benchmarks/results/timing
