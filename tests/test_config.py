"""Config loading, schema enforcement, and override precedence."""

import json

import pytest

from fermi_spectra import load_config
from fermi_spectra.errors import ParseError, SchemaError


def write(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return path


BASE = {
    "curve": {"mode": "curvature", "L": 3.141592653589793, "k": "0"},
    "width": "0.4",
    "p": 2.0,
}


class TestLoading:
    def test_minimal_curvature_config(self, tmp_path):
        cfg = load_config(write(tmp_path, BASE), command="certify")
        assert cfg.command == "certify"
        assert cfg.curve_mode == "curvature"
        assert cfg.p == 2.0
        assert cfg.mesh["ns"] == 256 and cfg.mesh["nt"] == 16
        assert len(cfg.sha256) == 64

    def test_sha_is_of_raw_bytes(self, tmp_path):
        import hashlib

        path = write(tmp_path, BASE)
        cfg = load_config(path, command="certify")
        assert cfg.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_parametric_mode(self, tmp_path):
        payload = {
            "curve": {
                "mode": "parametric",
                "x": "t",
                "y": "0.15*t^2",
                "t_range": [-1.0, 1.0],
            },
            "width": "0.2",
        }
        cfg = load_config(write(tmp_path, payload), command="certify")
        assert cfg.curve_mode == "parametric"

    def test_command_key_must_agree(self, tmp_path):
        payload = dict(BASE, command="bounds")
        load_config(write(tmp_path, payload), command="bounds")
        with pytest.raises(SchemaError):
            load_config(write(tmp_path, payload), command="certify")

    def test_figure2_needs_no_curve(self, tmp_path):
        cfg = load_config(write(tmp_path, {"figure2_n": 64}), command="figure2")
        assert cfg.figure2_n == 64


class TestRejections:
    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(SchemaError, match="wibble"):
            load_config(write(tmp_path, dict(BASE, wibble=1)), command="certify")

    def test_unknown_curve_key_with_path(self, tmp_path):
        payload = dict(BASE, curve=dict(BASE["curve"], extra=1))
        with pytest.raises(SchemaError, match="curve.extra"):
            load_config(write(tmp_path, payload), command="certify")

    def test_both_curve_modes_rejected(self, tmp_path):
        payload = dict(
            BASE,
            curve={
                "mode": "curvature",
                "L": 3.14,
                "k": "0",
                "x": "t",
                "y": "t",
                "t_range": [0, 1],
            },
        )
        with pytest.raises(SchemaError):
            load_config(write(tmp_path, payload), command="certify")

    def test_missing_curve_rejected(self, tmp_path):
        with pytest.raises(SchemaError, match="curve"):
            load_config(write(tmp_path, {"width": "0.4"}), command="certify")

    def test_small_exponent_rejected(self, tmp_path):
        with pytest.raises(SchemaError, match="p"):
            load_config(write(tmp_path, dict(BASE, p=0.5)), command="certify")

    def test_small_mesh_rejected(self, tmp_path):
        payload = dict(BASE, mesh={"ns": 4, "nt": 16})
        with pytest.raises(SchemaError):
            load_config(write(tmp_path, payload), command="certify")

    @pytest.mark.parametrize(
        "command, mesh, key",
        [
            ("solve2d", {"ns": 9}, "mesh.ns"),
            ("sweep", {"ns": 65}, "mesh.ns"),
            ("sweep", {"nt": 8}, "mesh.nt"),
        ],
    )
    def test_mesh_the_solvers_cannot_take(self, tmp_path, command, mesh, key):
        payload = dict(BASE, mesh=mesh, epsilons=[0.4])
        with pytest.raises(SchemaError, match=key):
            load_config(write(tmp_path, payload), command=command)

    def test_mesh_rules_bind_only_the_solvers_that_need_them(self, tmp_path):
        payload = dict(BASE, mesh={"ns": 9, "nt": 8})
        cfg = load_config(write(tmp_path, payload), command="certify")
        assert cfg.mesh["ns"] == 9 and cfg.mesh["nt"] == 8

    def test_sweep_requires_epsilons(self, tmp_path):
        with pytest.raises(SchemaError, match="epsilons"):
            load_config(write(tmp_path, BASE), command="sweep")

    def test_bad_expression_offset_reported(self, tmp_path):
        payload = dict(BASE, curve={"mode": "curvature", "L": 3.14, "k": "0.3*cos("})
        with pytest.raises(ParseError, match=r"curve\.k.*offset 8") as exc:
            load_config(write(tmp_path, payload), command="certify")
        assert exc.value.offset == 8

    def test_parametric_rejects_length_symbol(self, tmp_path):
        payload = {
            "curve": {
                "mode": "parametric",
                "x": "t*L",
                "y": "t^2",
                "t_range": [-1, 1],
            },
            "width": "0.2",
        }
        with pytest.raises(ParseError, match="L"):
            load_config(write(tmp_path, payload), command="certify")

    def test_malformed_json(self, tmp_path):
        with pytest.raises(SchemaError):
            load_config(write(tmp_path, "{not json"), command="certify")

    @pytest.mark.parametrize(
        "samples, message",
        [
            ([10**400] + [1] * 8, "sample arrays must be finite"),
            (["a"] * 9, "sample arrays must hold numbers only"),
            ([[1, 2], [1]] + [1] * 7, "sample arrays must hold numbers only"),
            ([True] * 9, "sample arrays must hold numbers only"),
            (["0.4"] * 9, "sample arrays must hold numbers only"),
        ],
    )
    def test_sample_arrays_numpy_cannot_read(self, tmp_path, samples, message):
        # 10**400 does not fit a double, like the curve.L of 10**400 that
        # _number rejects.  Booleans and numeric strings, which numpy would
        # read as 1 and 0.4, are refused as _number refuses them.
        with pytest.raises(SchemaError, match=f"width: {message}"):
            load_config(write(tmp_path, dict(BASE, width=samples)), command="certify")

    def test_negative_length_rejected(self, tmp_path):
        payload = dict(BASE, curve={"mode": "curvature", "L": -1.0, "k": "0"})
        with pytest.raises(SchemaError):
            load_config(write(tmp_path, payload), command="certify")


class TestOverrides:
    def test_flags_beat_config(self, tmp_path):
        payload = dict(BASE, mesh={"ns": 64, "nt": 16}, output={"dir": "a"})
        cfg = load_config(
            write(tmp_path, payload),
            command="certify",
            overrides={"ns": 128, "nt": 32, "p": 3.0, "out": "b"},
        )
        assert cfg.mesh["ns"] == 128
        assert cfg.mesh["nt"] == 32
        assert cfg.p == 3.0
        assert cfg.out_dir == "b"

    @pytest.mark.parametrize(
        "command, flags, key",
        [
            ("solve2d", {"ns": 9}, "--ns"),
            ("sweep", {"nt": 8}, "--nt"),
        ],
    )
    def test_mesh_flags_checked_against_command(self, tmp_path, command, flags, key):
        payload = dict(BASE, mesh={"ns": 64, "nt": 16}, epsilons=[0.4])
        with pytest.raises(SchemaError, match=key):
            load_config(write(tmp_path, payload), command=command, overrides=flags)

    def test_override_p_still_validated(self, tmp_path):
        with pytest.raises(SchemaError):
            load_config(
                write(tmp_path, BASE), command="certify", overrides={"p": 1.0}
            )
