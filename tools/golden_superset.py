#!/usr/bin/env python3
"""Check that a golden corpus only gained row keys.

Usage: tools/golden_superset.py OLD_GOLDEN NEW_GOLDEN OLD_PRESENT NEW_PRESENT

OLD_GOLDEN / NEW_GOLDEN are `tcplp_campaign --golden` directories written
before and after a change; OLD_PRESENT / NEW_PRESENT the matching
`--present-golden` directories. Each artifact must be byte-identical, or
every new row, with the keys its old row lacks deleted, must equal the old
row: same key order, same values, same rng_digest. Every presenter snapshot
must be byte-identical. Exits 1 when any of that fails.
"""
import json
import os
import sys


def rows(path):
    with open(path) as f:
        return [list(json.loads(line, object_pairs_hook=lambda kv: kv)) for line in f
                if line.strip()]


def read(path):
    with open(path, 'rb') as f:
        return f.read()


def main(old, new, old_present, new_present):
    failed = False
    if sorted(os.listdir(old)) != sorted(os.listdir(new)):
        print('the two corpora hold different artifacts')
        return 1
    identical = 0
    for name in sorted(os.listdir(old)):
        if read(os.path.join(old, name)) == read(os.path.join(new, name)):
            identical += 1
            continue
        before, after = rows(os.path.join(old, name)), rows(os.path.join(new, name))
        added = set()
        ok = len(before) == len(after)
        for a, b in zip(before, after):
            keys = {k for k, _ in a}
            if [kv for kv in b if kv[0] in keys] != a:
                ok = False
                break
            added |= {k for k, _ in b} - keys
        if ok:
            print(f'superset  {name}: +{len(added)} keys ({", ".join(sorted(added))})')
        else:
            print(f'CHANGED   {name}: a row lost a key or a value moved')
            failed = True
    print(f'{identical} of {len(os.listdir(old))} row artifacts byte-identical')

    snapshots = sorted(os.listdir(old_present))
    same = 0
    for name in snapshots:
        if (os.path.exists(os.path.join(new_present, name)) and
                read(os.path.join(old_present, name)) == read(os.path.join(new_present, name))):
            same += 1
        else:
            print(f'CHANGED   presenter {name}')
            failed = True
    print(f'{same} of {len(snapshots)} presenter snapshots byte-identical')
    return 1 if failed else 0


if __name__ == '__main__':
    if len(sys.argv) != 5:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
