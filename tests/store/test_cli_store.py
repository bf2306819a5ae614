"""``python -m repro store ...`` and ``--store`` on artifact runs."""

import json

import pytest

from repro.__main__ import main
from repro.api import clear_caches
from repro.store import set_store
from repro.telemetry import counts

SCALE = ["--days", "4", "--sites", "110", "--probe-targets", "50"]


@pytest.fixture(autouse=True)
def _deactivate_store_after():
    yield
    set_store(None)
    clear_caches()


class TestStoreWarm:
    def test_warm_ls_verify_roundtrip(self, tmp_path, capsys):
        root = str(tmp_path / "wh")
        code = main([
            "store", "warm", "--store", root, *SCALE,
            "--artifacts", "contrast,obs_availability",
        ])
        assert code == 0
        capsys.readouterr()

        assert main(["store", "ls", "--store", root, "--format", "json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        kinds = {(e["kind"], e["name"]) for e in listing["entries"]}
        assert ("layer", "traffic") in kinds
        assert ("layer", "observatory") in kinds
        assert ("artifact", "contrast") in kinds
        assert ("artifact", "obs_availability") in kinds

        assert main(["store", "verify", "--store", root]) == 0

    def test_warmed_store_serves_artifact_runs_without_rebuilds(
        self, tmp_path, capsys
    ):
        root = str(tmp_path / "wh")
        assert main([
            "store", "warm", "--store", root, *SCALE, "--artifacts", "none",
        ]) == 0
        clear_caches()
        before = counts("builds_total")
        assert main(["contrast", "--store", root, *SCALE]) == 0
        assert counts("builds_total") == before  # every layer came off disk
        assert "Three-way contrast" in capsys.readouterr().out

    def test_unknown_artifacts_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "store", "warm", "--store", str(tmp_path), *SCALE,
                "--artifacts", "contrst",
            ])
        assert excinfo.value.code == 2


class TestStoreMaintenance:
    def test_gc_removes_corruption_and_verify_flags_it(self, tmp_path, capsys):
        root = tmp_path / "wh"
        assert main([
            "store", "warm", "--store", str(root), *SCALE,
            "--layers", "census", "--artifacts", "none",
        ]) == 0
        capsys.readouterr()
        # Corrupt the one layer payload.
        [payload] = list(root.glob("objects/*/payload.pkl"))
        payload.write_bytes(b"garbage")
        assert main(["store", "verify", "--store", str(root)]) == 1
        capsys.readouterr()
        assert main(["store", "gc", "--store", str(root)]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["store", "verify", "--store", str(root)]) == 0

    def test_read_only_commands_refuse_a_nonexistent_store(
        self, tmp_path, capsys
    ):
        """verify/ls/gc on a mistyped path must fail, not create a store."""
        missing = tmp_path / "no-such-store"
        for command in ("verify", "ls", "gc"):
            with pytest.raises(SystemExit) as excinfo:
                main(["store", command, "--store", str(missing)])
            assert excinfo.value.code == 2
        assert not missing.exists()  # no empty store left behind

    def test_missing_store_dir_is_an_error(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        from repro.store import reset_store

        reset_store()
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "ls"])
        assert excinfo.value.code == 2

    def test_unknown_store_subcommand_exits_2_with_suggestion(
        self, tmp_path, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "sl", "--store", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "did you mean 'ls'" in capsys.readouterr().err


class TestTopLevelCli:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()

    def test_misspelled_subcommand_exits_2_and_suggests_store(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["stroe", "ls"])
        assert excinfo.value.code == 2
        assert "did you mean 'store'" in capsys.readouterr().err

    def test_misspelled_serve_suggested(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sevre"])
        assert excinfo.value.code == 2
        assert "serve" in capsys.readouterr().err
