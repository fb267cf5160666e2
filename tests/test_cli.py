"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.datasets import read_flow_csv


@pytest.fixture()
def dataset_csv(tmp_path):
    path = tmp_path / "ugr16.csv"
    assert main(["dataset", "ugr16", str(path), "--records", "200"]) == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dataset", "nope", "out.csv"])

    def test_all_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["dataset", "ugr16", "x.csv"],
            ["synthesize", "a.csv", "b.csv", "--model", "CTGAN"],
            ["synthesize", "a.csv", "b.csv", "--jobs", "2",
             "--save-model", "m.npz"],
            ["generate", "m.npz", "b.csv", "--records", "50"],
            ["evaluate", "a.csv", "b.csv"],
            ["consistency", "a.csv"],
            ["anonymize", "a.csv", "b.csv", "--method", "truncate"],
        ):
            assert parser.parse_args(argv).command == argv[0]


class TestDatasetCommand:
    def test_writes_csv(self, dataset_csv):
        trace = read_flow_csv(dataset_csv)
        assert len(trace) > 100

    def test_pcap_dataset(self, tmp_path):
        path = tmp_path / "caida.csv"
        assert main(["dataset", "caida", str(path), "--records", "150"]) == 0
        from repro.datasets import read_packet_csv

        assert len(read_packet_csv(path)) > 50

    def test_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["dataset", "ugr16", str(a), "--records", "100", "--seed", "3"])
        main(["dataset", "ugr16", str(b), "--records", "100", "--seed", "3"])
        assert a.read_text() == b.read_text()


class TestSynthesizeCommand:
    def test_netshare_roundtrip(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "synthetic.csv"
        code = main([
            "synthesize", str(dataset_csv), str(out),
            "--epochs", "2", "--chunks", "1", "--records", "100",
        ])
        assert code == 0
        synthetic = read_flow_csv(out)
        assert len(synthetic) == 100
        assert "training NetShare" in capsys.readouterr().out

    def test_save_model_then_generate(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "synthetic.csv"
        model_path = tmp_path / "model.npz"
        code = main([
            "synthesize", str(dataset_csv), str(out),
            "--epochs", "2", "--chunks", "2", "--records", "60",
            "--jobs", "2", "--save-model", str(model_path),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "backend=multiprocessing" in printed
        assert model_path.exists()
        regen = tmp_path / "regen.csv"
        assert main(["generate", str(model_path), str(regen),
                     "--records", "40"]) == 0
        assert len(read_flow_csv(regen)) == 40

    def test_save_model_rejected_for_baselines(self, dataset_csv, tmp_path):
        code = main([
            "synthesize", str(dataset_csv), str(tmp_path / "x.csv"),
            "--model", "CTGAN", "--epochs", "2",
            "--save-model", str(tmp_path / "x.npz"),
        ])
        assert code == 2

    def test_hosts_rejected_for_baselines(self, dataset_csv, tmp_path,
                                          capsys):
        """Baselines reach worker hosts only through REPRO_HOSTS, so
        --hosts is refused rather than dropped for a local run."""
        out = tmp_path / "x.csv"
        code = main([
            "synthesize", str(dataset_csv), str(out),
            "--model", "E-WGAN-GP", "--epochs", "2", "--records", "50",
            "--jobs", "2", "--hosts", "127.0.0.1:9",
        ])
        assert code == 2
        assert "--hosts only supports the NetShare model" in \
            capsys.readouterr().out
        assert not out.exists()

    def test_baseline_model(self, dataset_csv, tmp_path):
        out = tmp_path / "ctgan.csv"
        code = main([
            "synthesize", str(dataset_csv), str(out),
            "--model", "CTGAN", "--epochs", "2", "--records", "80",
        ])
        assert code == 0
        assert len(read_flow_csv(out)) == 80


class TestEvaluateCommand:
    def test_prints_report(self, dataset_csv, capsys):
        code = main(["evaluate", str(dataset_csv), str(dataset_csv)])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean JSD" in out


class TestConsistencyCommand:
    def test_prints_tests(self, dataset_csv, capsys):
        assert main(["consistency", str(dataset_csv)]) == 0
        out = capsys.readouterr().out
        assert "test1" in out and "test3" in out


class TestAnonymizeCommand:
    def test_prefix_anonymization(self, dataset_csv, tmp_path):
        out = tmp_path / "anon.csv"
        assert main(["anonymize", str(dataset_csv), str(out)]) == 0
        original = read_flow_csv(dataset_csv)
        anonymized = read_flow_csv(out)
        assert not set(anonymized.src_ip.tolist()) & set(
            original.src_ip.tolist())
        np.testing.assert_array_equal(anonymized.packets, original.packets)

    def test_truncate_anonymization(self, dataset_csv, tmp_path):
        out = tmp_path / "trunc.csv"
        assert main([
            "anonymize", str(dataset_csv), str(out),
            "--method", "truncate", "--keep-bits", "16",
        ]) == 0
        anonymized = read_flow_csv(out)
        assert np.all(anonymized.src_ip % (1 << 16) == 0)


class TestExportPcapCommand:
    def test_csv_to_pcap(self, tmp_path):
        csv_path = tmp_path / "packets.csv"
        main(["dataset", "caida", str(csv_path), "--records", "120"])
        pcap_path = tmp_path / "packets.pcap"
        assert main(["export-pcap", str(csv_path), str(pcap_path)]) == 0
        from repro.datasets import read_pcap, read_packet_csv

        original = read_packet_csv(csv_path)
        back = read_pcap(pcap_path)
        assert len(back) == len(original)
        np.testing.assert_array_equal(back.src_ip, original.src_ip)
