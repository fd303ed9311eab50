"""The exit-code contract under a seeded corpus of damaged input files.

Each case damages one file, chosen with its damage by a seeded generator:
one of the three input CSVs of a small data set, or a chain CSV, a
metadata_NN.json or the manifest.json of a two-chain fit of that data.
The commands that read the file then run in-process through
`main(args, standalone_mode=False)`: `fit` on the 2-draw schedule for an
input CSV; `summarize`, `ppc` and `diagnose` for a fit file.  Each must
exit 0 or 2; an exit of 2 names the damaged file, and for a CSV where
in it (LOCATED); no exception, and no numpy warning, escapes; and a
command that exits 2 leaves no output directory.

Values near the float maximum are not drawn.  A covariate that overflows
the location block's statistics exits 3 by decision, which
test_cli.test_fit_covariate_of_1e300_exits_3_from_the_location_block
pins; chain values of 1e300 and 1e308 are summarized and diagnosed with
a finite ESS, which
test_cli.test_chain_values_near_the_float_maximum_give_finite_ess pins.
"""
import json
import random
import re
import shutil

import pytest
from click.testing import CliRunner

from racemix.cli import main
from racemix.predictive import SyntheticSpec, simulate_dataset

from conftest import set_usable_cpus

SEED = 2024
CASES_PER_FILE = 14
INPUT_CSVS = ("results.csv", "races.csv", "rainfall.csv")
FIT_FILES = ("chain_01.csv", "metadata_02.json", "manifest.json")
TWO_DRAWS = ["--burn-in", "0", "--iterations", "2", "--thin", "1"]
# a lone surrogate, which _write turns into the byte 0xff: not UTF-8
BAD_BYTE = "\udcff"

# where an exit-2 message about a CSV points: a line; for chain values that
# predict no finite times, the draw; or, for too few rows, the whole file
LOCATED = re.compile(r"line \d+|draw \d+|holds \d+ draw\(s\)|no observations to fit")

# cells a damaged CSV row may hold: blanks, non-numbers, non-finite and
# out-of-range values, digit separators and non-ASCII digits, bad months,
# other levels, and text that CSV quoting splits or joins
CELLS = ["", " ", "nan", "inf", "-inf", "-1", "0", "-0.0", "4_0", "٤٠",
         "１", "abc", "0x10", "1e-320", "2017-13", "2017-1", "17-10", "2099-01",
         "17/18", "18/19", "M", "F", "m", "Alnwick", "A00001", '"1,5"', '"a\nb"', '"']


def _csv_damage(rng, text):
    """One seeded damage to a CSV text."""
    lines = text.split("\n")[:-1]
    row = rng.randrange(1, len(lines))
    cells = lines[row].split(",")
    kind = rng.choice(["cell", "cell", "cell", "drop_cell", "add_cell", "swap_cells",
                       "drop_line", "copy_line", "header", "truncate", "bad_byte",
                       "empty", "crlf_bom"])
    if kind == "cell":
        cells[rng.randrange(len(cells))] = rng.choice(CELLS)
    elif kind == "drop_cell":
        del cells[rng.randrange(len(cells))]
    elif kind == "add_cell":
        cells.insert(rng.randrange(len(cells) + 1), rng.choice(CELLS))
    elif kind == "swap_cells":
        i, j = rng.sample(range(len(cells)), 2)
        cells[i], cells[j] = cells[j], cells[i]
    elif kind == "drop_line":
        del lines[row]
    elif kind == "copy_line":
        lines.insert(rng.randrange(1, len(lines) + 1), lines[row])
    elif kind == "header":
        header = lines[0].split(",")
        header[rng.randrange(len(header))] = rng.choice(["", "x", "Month", "sex "])
        lines[0] = ",".join(header)
    elif kind == "truncate":
        return text[:rng.randrange(len(text))]
    elif kind == "bad_byte":
        cells[rng.randrange(len(cells))] += BAD_BYTE
    elif kind == "empty":
        return ""
    else:  # valid: a byte order mark and CRLF line ends
        return "\ufeff" + text.replace("\n", "\r\n")
    if kind in ("cell", "drop_cell", "add_cell", "swap_cells", "bad_byte"):
        lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _json_damage(rng, text):
    """One seeded damage to a JSON document's text."""
    doc = json.loads(text)
    kind = rng.choice(["value", "value", "value", "drop_key", "truncate", "bad_byte",
                       "not_object"])
    if kind == "truncate":
        return text[:rng.randrange(len(text))]
    if kind == "bad_byte":
        return text.replace("\n", "\n" + BAD_BYTE, 1)
    if kind == "not_object":
        return json.dumps([doc])
    # a key anywhere in the document: the top level or an object in it
    objects = [doc] + [v for v in doc.values() if isinstance(v, dict)]
    target = rng.choice(objects)
    key = rng.choice(sorted(target))
    if kind == "drop_key":
        del target[key]
    else:
        target[key] = rng.choice([None, "x", -1, 0, 2.5, True, [], {}, ["x"], 10 ** 6])
    return json.dumps(doc, indent=2)


def _write(path, text):
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


def _corpus():
    rng = random.Random(SEED)
    cases = []
    for name in INPUT_CSVS + FIT_FILES:
        for k in range(CASES_PER_FILE):
            cases.append(pytest.param(name, rng.randrange(1 << 30), id=f"{name}-{k:02d}"))
    return cases


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """A small data set and a two-chain 4-draw fit of it."""
    base = tmp_path_factory.mktemp("mutations")
    spec = SyntheticSpec(n_athletes=12, n_courses=3, n_seasons=2, n_races=4,
                         mean_finishers=8, seed=41)
    simulate_dataset(spec).write_csv(base / "data")
    with pytest.MonkeyPatch.context() as monkeypatch:
        set_usable_cpus(monkeypatch, 1)
        result = CliRunner().invoke(main, [
            "fit", *_data_args(base / "data"), "--burn-in", "0", "--iterations", "4",
            "--thin", "1", "--chains", "2", "--out", str(base / "fit")],
            catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return base


def _data_args(directory):
    return ["--data", str(directory / "results.csv"),
            "--covariates", str(directory / "races.csv"),
            "--rainfall", str(directory / "rainfall.csv"), "--sex", "M"]


def _invoke(args, capsys):
    """Run one command in-process; its exit code and its printed text."""
    try:
        main(args, standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out + out.err


@pytest.mark.parametrize("name, seed", _corpus())
def test_damaged_file_exits_0_or_2_naming_it(originals, tmp_path, monkeypatch, capsys,
                                             name, seed):
    rng = random.Random(seed)
    set_usable_cpus(monkeypatch, 1 + seed % 2)
    data, fit = tmp_path / "data", tmp_path / "fit"
    shutil.copytree(originals / "data", data)
    shutil.copytree(originals / "fit", fit)
    if name in INPUT_CSVS:
        target = data / name
        _write(target, _csv_damage(rng, target.read_text(encoding="utf-8")))
        out = tmp_path / "out"
        runs = [(["fit", *_data_args(data), *TWO_DRAWS, "--out", str(out)], out)]
    else:
        target = fit / name
        damage = _csv_damage if name.endswith(".csv") else _json_damage
        _write(target, damage(rng, target.read_text(encoding="utf-8")))
        index = re.search(r"_(\d\d)\.", name)
        index = str(int(index.group(1))) if index else str(1 + seed % 2)
        runs = [(["summarize", "--fit", str(fit), "--index", index], None),
                (["ppc", "--fit", str(fit), "--index", index,
                  "--out", str(tmp_path / "ppc")], tmp_path / "ppc"),
                (["diagnose", "--fit", str(fit), "--index", index,
                  "--out", str(tmp_path / "diagnose")], tmp_path / "diagnose")]
    for args, out in runs:
        code, printed = _invoke(args, capsys)
        assert code in (0, 2), printed
        if code == 2:
            assert str(target) in printed, printed
            if name.endswith(".csv"):
                assert LOCATED.search(printed), printed
            assert out is None or not out.exists(), printed
