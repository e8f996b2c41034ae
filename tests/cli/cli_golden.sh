#!/bin/sh
# Golden test for the fbist command line.
#
#   cli_golden.sh FBIST_CLI GOLDEN_DIR [--update]
#
# Runs every subcommand's success path on c17 and c432 in a scratch
# directory and compares, byte for byte, the stdout and exit status of
# each command (GOLDEN_DIR/transcript.txt) and every ROM image, .scp
# instance, campaign report and generated .bench file the commands write
# (one golden file each).  Then runs command lines that must be
# rejected: each must exit non-zero with an error on stderr that names
# the offending flag or argument.
#
# --update rewrites the goldens from FBIST_CLI instead of comparing (and
# skips the rejection cases).  stderr is never part of a golden: builds
# with failpoints compiled out add a warning there.
set -u

cli=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
golden=$(cd "$2" && pwd)
update=${3:-}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1
failures=0

# run ARGS...: appends the command line, its stdout and its exit status
# to the transcript.
run() {
  printf '$ fbist %s\n' "$*" >> transcript.txt
  "$cli" "$@" >> transcript.txt 2> /dev/null
  printf '[exit %d]\n' "$?" >> transcript.txt
}

# keep FILE...: each written FILE must equal GOLDEN_DIR/FILE.
keep() {
  for f in "$@"; do
    if [ "$update" = --update ]; then
      cp "$f" "$golden/$f"
    elif ! cmp -s "$f" "$golden/$f"; then
      echo "FAIL: $f differs from its golden"
      diff -u "$golden/$f" "$f" | head -40
      failures=$((failures + 1))
    fi
  done
}

# reject NEEDLE ARGS...: the command must exit non-zero and name NEEDLE
# on stderr.
reject() {
  needle=$1
  shift
  "$cli" "$@" > /dev/null 2> stderr.txt
  rc=$?
  if [ "$rc" -eq 0 ] || ! grep -qF -- "$needle" stderr.txt; then
    echo "FAIL: 'fbist $*' exited $rc; expected a rejection naming '$needle'"
    sed 's/^/  stderr| /' stderr.txt
    failures=$((failures + 1))
  fi
}

run list
run failpoints
run gen 3 2 10 1
"$cli" gen 5 3 40 7 > gen.bench
keep gen.bench
run info gen.bench

for c in c17 c432; do
  run info $c
  run atpg $c
  run atpg $c --sat-escalate off
  run reseed $c --cycles 8 --out $c.rom
  run reseed $c --tpg lfsr --cycles 16 --solver greedy --out $c-greedy.rom
  run replay $c $c.rom
  run replay $c $c-greedy.rom
  run tradeoff $c
  run tradeoff $c --tpg multiplier
  run matrix $c --cycles 8
  run matrix $c --tpg subtracter --cycles 4 --out $c.scp
  run solve $c.scp
  run solve $c.scp --solver greedy
  keep $c.rom $c-greedy.rom $c.scp
done

# One worker where the cache is on: its hit/miss line counts racing
# runs of the same matrix at --jobs 2.
printf 'circuits c432\ncycles 16\n' > sweep.txt
run campaign --circuits c17 --cycles 8 --jobs 1 --cache dmx --json c17.json
run campaign sweep.txt --tpgs adder,lfsr --solvers exact,greedy --jobs 1 \
  --cache dmx --json c432.json
run cache list dmx
run campaign --circuits c17 --tpgs adder,lfsr --cycles 4,8 --jobs 2 \
  --checkpoint shard-1 --shard 1/2
run campaign --circuits c17 --tpgs adder,lfsr --cycles 4,8 --jobs 1 \
  --checkpoint shard-2 --shard 2/2 --sat-escalate on --run-timeout 60000
run merge --circuits c17 --tpgs adder,lfsr --cycles 4,8 \
  --checkpoint shard-1 --checkpoint shard-2 --json merged.json
keep c17.json c432.json merged.json
keep transcript.txt

[ "$update" = --update ] && exit 0

# Every flag a subcommand does not honour, every extra argument and
# every bad value is an error that names it.
printf 'circuits c17\n' > a.txt
cp a.txt b.txt
reject "--solver: unknown solver: bogus" reseed c17 --solver bogus
reject --cycles tradeoff c17 --cycles 8 --solver greedy --out F
reject "--solver: unknown solver: bogus" solve c17.scp --solver bogus --tpg lfsr --cycles 3
reject --tpg solve c17.scp --tpg lfsr
merge="merge --circuits c17 --tpgs adder,lfsr --cycles 4,8 --checkpoint shard-1
  --checkpoint shard-2"
reject --trace $merge --trace T --metrics M
reject --metrics $merge --metrics M
reject --sat-escalate $merge --sat-escalate off
reject --jobs $merge --jobs 2
reject b.txt campaign a.txt b.txt
reject --bogus info c17 --bogus
reject --extra gen 3 2 10 1 --extra
reject extra cache list dmx extra
reject "--sat-escalate needs a value" atpg c17 --sat-escalate
reject "--out needs a value" reseed c17 --out
reject "--sat-escalate: expected on|off" atpg c17 --sat-escalate maybe
reject --solver matrix c17 --solver greedy
reject "--cycles: bad value '0'" reseed c17 --cycles 0
reject frob frob c17
for f in F T M; do
  [ -e $f ] && { echo "FAIL: a rejected command wrote $f"; failures=$((failures + 1)); }
done

if [ "$failures" -ne 0 ]; then
  echo "$failures CLI golden check(s) failed"
  exit 1
fi
echo "CLI golden checks passed"
