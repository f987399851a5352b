"""Model loading, validation, and thermodynamic constraint checks."""

import dataclasses
import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from r13lab.models import (
    MTable,
    bundled_model_path,
    bundled_models,
    load_model,
    maxwell_specialize,
    model_file,
    resolve_model,
    thermo_discriminants,
)

# Published strict-constraint table, 4 significant digits per entry.
APPENDIX = {
    "eta7": dict(
        k1=3.0773e-3, k2=1.2550e-5, k10=2.8590e-7, z1=4.0729e-10, w1=0.5371,
        k3=2.6072e-3, k4=4.8885e-2, k7=9.7119e-1, z2=1.0265e-3, w2=0.9831,
    ),
    "eta10": dict(
        k1=8.7436e-3, k2=4.5818e-5, k10=1.1896e-6, z1=4.1035e-9, w1=0.6055,
        k3=7.4080e-3, k4=8.1805e-2, k7=9.5624e-1, z2=2.7104e-3, w2=0.9841,
    ),
    # The eta17 row as printed carries z1 = 1.5190e-8, but that entry
    # contradicts the row's own k values and its own w1: by definition
    # z1 = k1*k10 - 3*k2^2 = 1.6405e-8, and (1 - w1)*k1*k10 gives the same
    # number back.  The table value below pins the row-implied z1; the
    # printed value is exposed by test_eta17_printed_z1_is_inconsistent.
    "eta17": dict(
        k1=1.6341e-2, k2=1.0021e-4, k10=2.8475e-6, z1=1.6405e-8, w1=0.6474,
        k3=1.3840e-2, k4=1.1124e-1, k7=9.4576e-1, z2=4.7852e-3, w2=0.9848,
    ),
    "eta-infinity": dict(
        k1=3.0261e-2, k2=2.0798e-4, k10=6.3621e-6, z1=6.2756e-8, w1=0.6740,
        k3=2.5607e-2, k4=1.5056e-1, k7=9.3584e-1, z2=8.4295e-3, w2=0.9853,
    ),
}

SIG4 = 5e-4  # relative tolerance for 4-significant-digit table entries

# The value actually printed in the eta17 row.  It cannot be reproduced:
# the row's own k1, k2, k10 (and its own w1) imply 1.6405e-8.  See
# DECISIONS.md entry D8.
ETA17_PRINTED_Z1 = 1.5190e-8


def make_doc(**overrides):
    doc = {
        "eta": 7,
        "chi": 1.0,
        "l1": 1.0,
        "l2": 1.2,
        "k": {f"k{i}": 0.1 * (i + 1) for i in range(11)},
        "m": [[0.0] * 9 for _ in range(8)],
    }
    doc.update(overrides)
    return doc


class TestMTable:
    def test_one_based_indexing(self):
        data = np.arange(72, dtype=float).reshape(8, 9)
        m = MTable(data)
        assert m[1, 1] == 0.0
        assert m[1, 9] == 8.0
        assert m[8, 9] == 71.0

    def test_out_of_range(self):
        m = MTable(np.zeros((8, 9)))
        with pytest.raises(IndexError):
            m[0, 1]
        with pytest.raises(IndexError):
            m[9, 1]
        with pytest.raises(IndexError):
            m[1, 10]

    def test_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            MTable(np.zeros((8, 8)))

    def test_array_read_only(self):
        m = MTable(np.zeros((8, 9)))
        with pytest.raises(ValueError):
            m.array[0, 0] = 1.0

    def test_with_entry(self):
        m = MTable(np.zeros((8, 9)))
        m2 = m.with_entry(7, 1, 0.8)
        assert m2[7, 1] == 0.8
        assert m[7, 1] == 0.0

    def test_hash_agrees_with_eq(self):
        a, b = resolve_model("eta7"), resolve_model("eta7")
        assert a == b and hash(a) == hash(b)
        assert a.m == b.m and hash(a.m) == hash(b.m)
        changed = a.m.with_entry(1, 1, a.m[1, 1] + 1.0)
        assert changed != a.m
        assert dataclasses.replace(a, m=changed) != a
        # Zeros of either sign compare equal, so they hash alike.
        zero = MTable(np.zeros((8, 9)))
        negative = zero.with_entry(8, 9, -0.0)
        assert negative == zero and hash(negative) == hash(zero)


class TestLoadModel:
    def test_chi_tilde_exact(self):
        model = load_model(make_doc(chi=1.0))
        assert model.chi_tilde == 2.0

    def test_chi_tilde_formula(self):
        model = load_model(make_doc(chi=0.5))
        assert model.chi_tilde == pytest.approx(2.0 * 0.5 / 1.5, rel=1e-15)

    def test_l1_zero_rejected(self):
        with pytest.raises(ValueError, match="l1 must be positive"):
            load_model(make_doc(l1=0.0))

    def test_l2_negative_rejected(self):
        with pytest.raises(ValueError, match="l2 must be positive"):
            load_model(make_doc(l2=-0.1))

    @pytest.mark.parametrize("chi", [0.0, -0.2, 1.5])
    def test_chi_out_of_range(self, chi):
        with pytest.raises(ValueError, match=r"chi must be in \(0, 1\]"):
            load_model(make_doc(chi=chi))

    def test_negative_k_named(self):
        doc = make_doc()
        doc["k"]["k3"] = -1.0
        with pytest.raises(ValueError, match="k3 must be nonnegative"):
            load_model(doc)

    @pytest.mark.parametrize("field,value", [
        ("k6", True), ("k9", math.nan), ("k0", math.inf), ("k4", -math.inf),
        ("k2", "abc"), ("k1", None), ("l1", math.nan), ("l2", math.inf),
        ("l1", True), ("chi", True), ("chi", math.nan),
        ("m[3, 2]", math.nan), ("m[8, 9]", -math.inf), ("m[1, 1]", False)])
    def test_non_finite_or_boolean_number_named(self, field, value):
        doc = make_doc()
        if field.startswith("k"):
            doc["k"][field] = value
        elif field.startswith("m"):
            j, k = (int(i) for i in field[2:-1].split(", "))
            doc["m"][j - 1][k - 1] = value
        else:
            doc[field] = value
        with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be a finite number"):
            load_model(doc)

    @pytest.mark.parametrize("value", [10**400, -10**400], ids=["huge", "-huge"])
    def test_integer_beyond_float_range_named(self, value):
        # float() of such an int once raised OverflowError.
        doc = make_doc()
        doc["k"]["k0"] = value
        with pytest.raises(ValueError, match="^k0 must be a finite number"):
            load_model(doc)

    def test_k_list_entry_named(self):
        k = [0.1] * 11
        k[7] = math.nan
        with pytest.raises(ValueError, match="^k7 must be a finite number"):
            load_model(make_doc(k=k))

    @pytest.mark.parametrize("field,doc", [
        ("k", make_doc(k=3.0)), ("k", make_doc(k="k0")), ("m", make_doc(m=1.0)),
        ("m", make_doc(m={"row": [0.0]})),
        ("m row 1", make_doc(m=[1.0] * 8)), ("m row 2", make_doc(m=[[0.0], "0.0"] + [[0.0]] * 6))])
    def test_scalar_where_list_expected_named(self, field, doc):
        with pytest.raises(ValueError, match=rf"^{field} must be a list"):
            load_model(doc)

    @pytest.mark.parametrize("flag", ["yes", 1, 0.0, None, "true"])
    def test_maxwell_flag_must_be_boolean(self, flag):
        with pytest.raises(ValueError, match="^maxwell must be true or false"):
            load_model(make_doc(maxwell=flag))

    @pytest.mark.parametrize("flag", [True, False])
    def test_maxwell_flag_boolean(self, flag):
        k = {**make_doc()["k"], "k0": 1.0, "k1": 0.0, "k2": 0.0, "k3": 0.0, "k4": 0.0,
             "k5": 1.0}
        assert load_model(make_doc(k=k, maxwell=flag)).is_maxwell is flag

    def test_missing_top_level_field(self):
        doc = make_doc()
        del doc["l1"]
        with pytest.raises(ValueError, match="missing field: l1"):
            load_model(doc)

    def test_missing_k_entry(self):
        doc = make_doc()
        del doc["k"]["k7"]
        with pytest.raises(ValueError, match="missing field: k.k7"):
            load_model(doc)

    def test_k_as_list(self):
        doc = make_doc(k=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
        model = load_model(doc)
        assert model.k5 == 5.0
        assert np.array_equal(model.k, np.arange(11.0))

    def test_k_list_wrong_length(self):
        with pytest.raises(ValueError, match="k must list 11 values"):
            load_model(make_doc(k=[1.0] * 10))

    def test_m_wrong_row_count(self):
        with pytest.raises(ValueError, match="m must have 8 rows"):
            load_model(make_doc(m=[[0.0] * 9] * 7))

    def test_m_row_too_long(self):
        doc = make_doc()
        doc["m"][2] = [0.0] * 10
        with pytest.raises(ValueError, match="m row 3"):
            load_model(doc)

    def test_m_short_rows_padded(self):
        doc = make_doc()
        doc["m"][0] = [1.5, 2.5]
        model = load_model(doc)
        assert model.m[1, 1] == 1.5
        assert model.m[1, 2] == 2.5
        assert model.m[1, 3] == 0.0

    @pytest.mark.parametrize("label", ["infinity", "inf", "Infinity"])
    def test_eta_infinity_label(self, label):
        model = load_model(make_doc(eta=label))
        assert model.eta == "infinity"

    def test_eta_bad_string(self):
        with pytest.raises(ValueError, match="eta"):
            load_model(make_doc(eta="huge"))

    def test_eta_numeric(self):
        assert load_model(make_doc(eta=17)).eta == 17.0

    def test_eta_exponent_float_string(self):
        # PyYAML reads `eta: 1e1` as the string '1e1' (DECISIONS.md D26).
        assert load_model(make_doc(eta=yaml.safe_load("eta: 1e1")["eta"])).eta == 10.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                       True, False, None, [7]])
    def test_eta_non_finite_or_non_number_rejected(self, value):
        # Only the string label is an infinite eta; a YAML .inf, .nan,
        # boolean or list is not a finite potential exponent.
        with pytest.raises(ValueError, match="eta must be a finite number"):
            load_model(make_doc(eta=value))

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "model.yaml"
        path.write_text(
            "eta: 7\nchi: 1.0\nl1: 1.0\nl2: 1.0\n"
            "k: {k0: 0, k1: 0, k2: 0, k3: 0, k4: 0, k5: 0, k6: 0, k7: 0, k8: 0, k9: 0, k10: 0}\n"
            "m:\n" + "- [0, 0, 0, 0, 0, 0, 0, 0, 0]\n" * 8
        )
        model = load_model(path)
        assert model.eta == 7.0
        assert model.chi_tilde == 2.0

    def test_non_mapping_document(self, tmp_path):
        path = tmp_path / "model.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ValueError, match="mapping"):
            load_model(path)

    def test_appendix_values_echoed_bit_exact(self):
        model = load_model(bundled_model_path("eta7"))
        row = APPENDIX["eta7"]
        assert model.k1 == row["k1"]
        assert model.k2 == row["k2"]
        assert model.k3 == row["k3"]
        assert model.k4 == row["k4"]
        assert model.k7 == row["k7"]
        assert model.k10 == row["k10"]

    @pytest.mark.parametrize("name", bundled_models())
    def test_bundled_model_matches_pure_python_parse(self, name):
        path = bundled_model_path(name)
        reference = yaml.load(path.read_text(), Loader=yaml.SafeLoader)
        assert load_model(path) == load_model(reference)

    def test_same_text_parsed_once(self, tmp_path):
        # The model of a document text is shared, whichever file holds it.
        copy = tmp_path / "copy.yaml"
        copy.write_text(bundled_model_path("eta7").read_text())
        model = load_model(bundled_model_path("eta7"))
        assert load_model(copy) is model
        assert resolve_model("eta7") is model
        assert load_model(str(copy)) is model

    def test_rewritten_file_is_parsed_again(self, tmp_path):
        path = tmp_path / "model.yaml"
        path.write_text(yaml.safe_dump(make_doc(chi=1.0)))
        first = load_model(path)
        path.write_text(yaml.safe_dump(make_doc(chi=0.5)))
        second = load_model(path)
        assert (first.chi, second.chi) == (1.0, 0.5)
        path.write_text(yaml.safe_dump(make_doc(chi=1.0)))
        assert load_model(path) is first

    @pytest.mark.parametrize("text,error", [
        (yaml.safe_dump(make_doc(l1=0.0)), ValueError),
        ("- 1\n- 2\n", ValueError),
        ("eta: [7\n", yaml.YAMLError)])
    def test_invalid_file_raises_on_every_call(self, tmp_path, text, error):
        path = tmp_path / "model.yaml"
        path.write_text(text)
        for _ in range(3):
            with pytest.raises(error):
                load_model(path)


class TestThermoDiscriminants:
    def test_eta7_pair1(self):
        model = load_model(bundled_model_path("eta7"))
        report = thermo_discriminants(model)
        assert report.z1 == pytest.approx(4.0729e-10, rel=SIG4)
        assert report.w1 == pytest.approx(0.5371, rel=SIG4)
        assert report.status1 == "strict"

    def test_eta7_pair2(self):
        model = load_model(bundled_model_path("eta7"))
        report = thermo_discriminants(model)
        assert report.z2 == pytest.approx(1.0265e-3, rel=SIG4)
        assert report.w2 == pytest.approx(0.9831, rel=SIG4)
        assert report.status2 == "strict"

    @pytest.mark.parametrize("name", sorted(APPENDIX))
    def test_table_rows_match(self, name):
        model = load_model(bundled_model_path(name))
        report = thermo_discriminants(model)
        row = APPENDIX[name]
        assert report.z1 == pytest.approx(row["z1"], rel=SIG4)
        assert report.w1 == pytest.approx(row["w1"], rel=SIG4)
        assert report.z2 == pytest.approx(row["z2"], rel=SIG4)
        assert report.w2 == pytest.approx(row["w2"], rel=SIG4)
        assert report.status1 == "strict"
        assert report.status2 == "strict"

    @pytest.mark.xfail(
        strict=True,
        reason="printed eta17 z1 entry contradicts the row's own k values "
        "and w1; see DECISIONS.md entry D8",
    )
    def test_eta17_printed_z1_is_inconsistent(self):
        model = load_model(bundled_model_path("eta17"))
        report = thermo_discriminants(model)
        assert report.z1 == pytest.approx(ETA17_PRINTED_Z1, rel=SIG4)

    def test_eta17_row_implied_z1(self):
        # Independent pin: z1 must equal (1 - w1) * k1 * k10 by definition,
        # so the row's w1 fixes z1 regardless of the printed z1 entry.
        row = APPENDIX["eta17"]
        implied = (1.0 - row["w1"]) * row["k1"] * row["k10"]
        model = load_model(bundled_model_path("eta17"))
        report = thermo_discriminants(model)
        assert report.z1 == pytest.approx(implied, rel=SIG4)
        assert implied != pytest.approx(ETA17_PRINTED_Z1, rel=SIG4)

    def test_maxwell_pair1_degenerate(self):
        doc = make_doc()
        doc["k"]["k1"] = 0.0
        doc["k"]["k2"] = 0.0
        report = thermo_discriminants(load_model(doc))
        assert report.z1 == 0.0
        assert report.status1 == "degenerate"
        assert math.isnan(report.w1)

    def test_boundary_status(self):
        doc = make_doc()
        doc["k"].update(k1=3.0, k2=1.0, k10=1.0)  # z1 = 3 - 3 = 0 with product > 0
        report = thermo_discriminants(load_model(doc))
        assert report.z1 == 0.0
        assert report.status1 == "boundary"
        assert report.w1 == pytest.approx(1.0, rel=1e-15)

    def test_violated_status(self):
        doc = make_doc()
        doc["k"].update(k1=1.0, k2=1.0, k10=1.0)  # z1 = -2
        report = thermo_discriminants(load_model(doc))
        assert report.z1 < 0.0
        assert report.status1 == "violated"
        assert not report.admissible

    @pytest.mark.parametrize("name", sorted(APPENDIX))
    def test_z_positive_iff_w_below_one(self, name):
        report = thermo_discriminants(load_model(bundled_model_path(name)))
        assert (report.z1 > 0) == (report.w1 < 1)
        assert (report.z2 > 0) == (report.w2 < 1)


class TestMaxwellSpecialize:
    def test_k_identities(self):
        model = maxwell_specialize(load_model(make_doc()))
        assert model.k0 == 1.0
        assert model.k5 == 1.0
        assert model.k1 == model.k2 == model.k3 == model.k4 == 0.0
        assert model.is_maxwell

    def test_other_fields_preserved(self):
        base = load_model(make_doc(chi=0.7))
        model = maxwell_specialize(base)
        assert model.l1 == base.l1
        assert model.l2 == base.l2
        assert model.chi == base.chi
        assert model.chi_tilde == base.chi_tilde
        assert model.m == base.m
        assert model.k7 == base.k7

    def test_idempotent(self):
        once = maxwell_specialize(load_model(make_doc()))
        assert maxwell_specialize(once) == once

    def test_discriminants_degenerate(self):
        report = thermo_discriminants(maxwell_specialize(load_model(make_doc())))
        assert report.status1 == "degenerate"
        assert report.status2 == "degenerate"
        assert report.z1 == 0.0
        assert report.z2 == 0.0


class TestBundled:
    def test_all_files_present(self):
        names = bundled_models()
        for expected in ("eta7", "eta10", "eta17", "eta-infinity", "maxwell"):
            assert expected in names

    def test_all_files_load(self):
        for name in bundled_models():
            model = load_model(bundled_model_path(name))
            assert model.l1 > 0

    def test_maxwell_file_flagged(self):
        model = load_model(bundled_model_path("maxwell"))
        assert model.is_maxwell
        assert model.k0 == 1.0 and model.k5 == 1.0

    def test_maxwell_flag_off_the_limit_rejected(self):
        # The flag selects the grouped solve, which drops the forms that
        # vanish only in the Maxwell limit; each entry off it is named.
        doc = yaml.safe_load(bundled_model_path("eta7").read_text())
        doc["maxwell"] = True
        with pytest.raises(ValueError, match=r"limit .*; got k0 = 0\.9, k1 = .*, k5 = 1\.1$"):
            load_model(doc)
        doc = yaml.safe_load(bundled_model_path("maxwell").read_text())
        assert load_model(doc).is_maxwell
        doc["k"]["k2"] = 0.25
        with pytest.raises(ValueError, match=r"; got k2 = 0\.25$"):
            load_model(doc)

    def test_resolve_by_name(self):
        assert resolve_model("eta10").k1 == APPENDIX["eta10"]["k1"]

    def test_resolve_mapping(self):
        assert resolve_model(make_doc()).eta == 7.0

    def test_resolve_unknown_name(self):
        with pytest.raises(ValueError, match="available"):
            resolve_model("eta99")

    def test_model_file_rule(self, tmp_path, monkeypatch):
        # A source ending in .yaml or .yml, or naming an existing file, is
        # that file, so an existing file shadows a bundled name; any other
        # source names a bundled model.
        missing = tmp_path / "missing.yml"
        assert model_file(str(missing)) == (missing, False)
        path, bundled = model_file("eta7")
        assert bundled and path == bundled_model_path("eta7")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "eta7").write_text(yaml.safe_dump(make_doc(chi=0.5)))
        assert model_file("eta7") == (Path("eta7"), False)
        assert resolve_model("eta7") == load_model(make_doc(chi=0.5))

    def test_generator_reproduces_bundled_files(self, tmp_path):
        # scripts/generate_model_data.py, run into an empty directory, writes
        # the five bundled files byte for byte.
        script = Path(__file__).resolve().parents[1] / "scripts" / "generate_model_data.py"
        spec = importlib.util.spec_from_file_location("generate_model_data", script)
        generator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generator)
        generator.DATA_DIR = tmp_path
        generator.main()
        written = sorted(path.name for path in tmp_path.iterdir())
        assert written == sorted(f"{name}.yaml" for name in bundled_models())
        for name in written:
            bundled = bundled_model_path(name[:-5]).read_bytes()
            assert (tmp_path / name).read_bytes() == bundled, name

    def test_eta_infinity_label_round_trip(self):
        assert load_model(bundled_model_path("eta-infinity")).eta == "infinity"
