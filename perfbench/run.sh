#!/bin/sh
# Builds the benchmark from this checkout and runs it:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   sh perfbench/run.sh --self-test
# The build goes to .bench_build/ with dune's shared cache off, so
# nothing outside the checkout is read or written.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib/core ]; then
  echo "perfbench: $(pwd) is not a checkout of the simulator" >&2
  exit 2
fi
dune build --root . --build-dir .bench_build --cache=disabled \
  --display=quiet ./perfbench/perfbench.exe >&2
exe=./.bench_build/default/perfbench/perfbench.exe
# The simulation workloads are single-threaded.  They run pinned to one
# CPU, with the processes they start (the reference kernel, the set-up
# probes): on a shared VM an unpinned run migrates between vCPUs whose
# speed differs from second to second, and its times stop tracking the
# kernel's.  service_mix keeps every CPU for the daemon's pool.
case " $* " in
  *" service_mix "*) ;;
  *)
    cpu=$(taskset -cp $$ 2>/dev/null | sed -n 's/.*: *\([0-9]*\).*/\1/p')
    if [ -n "$cpu" ]; then exec taskset -c "$cpu" "$exe" "$@"; fi
    ;;
esac
exec "$exe" "$@"
