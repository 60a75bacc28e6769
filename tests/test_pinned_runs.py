"""Pinned digests of runs: validation reports and CLI step traces.

A refactor of the builder, the evaluator or the decoder must reproduce
every report (less its wall time) and every `--trace-out` file byte for
byte. `test_pinned_models` pins the weights; these pin what runs on them.
"""

import hashlib
import json

import pytest

from machines import bouncer_machine, fig2_machine
from tm2tf.automata import tm_to_json
from tm2tf.cli import main
from tm2tf.harness import acceptance_dfas, validate_dfa, validate_trials


def _report_digest(report) -> str:
    doc = report.to_json()
    del doc["wall_time"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# validate_trials(protocol, mode, seed, 3) as "protocol-mode-seed", and
# validate_dfa(acceptance_dfas(), 3, 7) as "dfa".
REPORT_DIGESTS = {
    "dfa": "125af87b774b55d912b18b4b1a2a40ad58e1ef09f2b296d35a6b0976b43ee20f",
    "cot-hardmax-0": "5c7913e05dfebec1958c2586d034d4d43862f46eaf3ad71040a430e88321ec1c",
    "cot-hardmax-1": "85ef011752c046b076e1102e86eb8526afed3e2c8c33b54a4d8ee9ef5ba6bda4",
    "cot-hardmax-2": "1d3cf0ba09d0caa84014a7a99c9408c18bcdc88566201fd63f7ddbef7393f39a",
    "cot-hardmax-3": "3378b61af444f2a766149884f41ccf814c240ecbdce629ce3b2ba527b5e5baa7",
    "cot-hardmax-4": "f9be341c379b86cb38fdaba3f573bdfe7e4b74d29bd32388df8028c6df6acc9a",
    "cot-hardmax-5": "474fc4386d5c4f34e585237f1dde1b20b999043bcf449f4fe1a839a120a3c72b",
    "cot-hardmax-6": "ec38901154a5374fe92f071550b22460c7618c5a47ed9c938fb32d30a9be2821",
    "cot-hardmax-7": "b95fb321b4d60ff9d752a2e16b673fad4fa40b1bfdd50d077e487af430498a00",
    "cot-scaled_only-0": "a4cab83329e9b0c4191dbe1cd427e039e79b69e137e8ba6e4d5bac11ec250167",
    "cot-scaled_only-1": "82fc2b0c1b75b09b725137ea7296ebd6b56d50b2c7738ca19def7db4f77137a1",
    "cot-scaled_only-2": "7724df02f5c7e58fcf458918ac35813666f5527a9e339104deeeec192234b406",
    "cot-scaled_only-3": "57128c2b7936c379cdb99df064e3917f1070130329ba70fd2e7b3a70e7b285f2",
    "cot-scaled_only-4": "9725e3742d09482a3a0cfb51bae7623747fbb739ad953e8fb8eceb1c1f8cfada",
    "cot-scaled_only-5": "c567fcfc2b9897b7de0d236d223ee0571d446daf3b3d34e90d0f43412293ec00",
    "cot-scaled_only-6": "60e53de087ca6b981bed18b46435a7d00e3bfd17024f2c8e0787b130d2f4f665",
    "cot-scaled_only-7": "2100640dcda2133ce03271eaeb46e4f6b8163ff57346f72871780e85885e8e08",
    "cot-denoised-0": "0d1993748ed49446daeb14f2b0d98ab3fbafeb3171891e3a519afc9115edf5b7",
    "cot-denoised-1": "6777ac31fcc0b4ac824bb64b4acac6e41f7d178a7cc86f7802f553fc30424d3e",
    "cot-denoised-2": "41dfb7b37db36513369ac76cd5ef971697e27ae85eea78230da824f5603f419b",
    "cot-denoised-3": "4045575dcff5b1a652e302260c3914852a7b96c39f63cf936e67191cc7b10bbc",
    "cot-denoised-4": "375b9eabba2c098699d86ea2be2e94fd5631f79891bd3d28806327ef932fb96e",
    "cot-denoised-5": "02926ac9dff6ca367a881756124f233eebc84e463767468ffaf0127548a1e073",
    "cot-denoised-6": "c65bf0dd35b7107fefe111384c6bbb3769e583ab1e6dfb877f687e35bae396bf",
    "cot-denoised-7": "26404d63c93b99dcb4194d3bad27bd12ff01ef932b899b2209d0ce20981f82e7",
    "scot-hardmax-0": "dd6c781b0bfd3a7048988ca9b7efc22677ce7d42126c6fc1c0328965ca3b9c90",
    "scot-hardmax-1": "6a10b2fca80c92bcd17c71457f9a038ad7adddf011b3a86f78881fd5441be455",
    "scot-hardmax-2": "8d12ead9aacf6f8ffdd9555903277dcbf6c1e45d79b72e0e7d7d1ceb55e755e1",
    "scot-hardmax-3": "0abfdf33317ed401b1a66603a4add8071651a51618539cc4de59039ec4804370",
    "scot-hardmax-4": "73ba68fb086d02ba88037ce78b423f50d11218e77028541149b3a49a3c04fef0",
    "scot-hardmax-5": "9881bf0254c11bfa5d8aebcae6731712dd51f62a73e10cd64332382cdc8abe16",
    "scot-hardmax-6": "8cf7fa303500ab1a763420b1e6e93e351f63aa8996a488397784ef1c7fed3323",
    "scot-hardmax-7": "016e053f8391e7c99e64f8be9d677f16a2340264e95d1ea4731f507f3b8dedad",
    "scot-scaled_only-0": "2e8922dee39e3f83680a7acb9ba53c34733e441c58da376c2812254ab4cb20e8",
    "scot-scaled_only-1": "55fbaf5b072495721667c467d3f2335dbba421e9dcbd2f5dfd0642a43e9f9241",
    "scot-scaled_only-2": "411c0303d87b6b21cc83f02c8666a111e3227abb47962c82e4d7508796077baf",
    "scot-scaled_only-3": "464d6a024ef4b5bae4da846c88bc755b6ebcc6f62dfee10301ed2ade7e361d96",
    "scot-scaled_only-4": "b80355ec7d1b3d0ba74264c05cb2142b3fb65d4b65e02ca746f2557980d0160c",
    "scot-scaled_only-5": "6576ba4224541308e78e7f6a68811eb6258e3aab17dfb8b56c98eaa3e578603f",
    "scot-scaled_only-6": "ee8bb53cfa704975903e524835fca8f387426df12d6c211a68ef4c1f8861b228",
    "scot-scaled_only-7": "422d747fc1c36acce374bc1caa2015991f839780dbf59c8f9b4e839b3aa58949",
    "scot-denoised-0": "d3aa8f180db45ff9317f280f98b5e4aacf34f67a61ca5cc5cd6cef428df5a4d7",
    "scot-denoised-1": "309127210f72faf3f38415110f37c91513c403679983f97dfc638ca39c257bcb",
    "scot-denoised-2": "c9945cb46a2a1db5ca41520a10da3d85c70eb3d69d34aaeb290a15406bd32212",
    "scot-denoised-3": "e27fb9b78fb85b806575a889bafcd01a85bbb97261056089006c91e98e0decd7",
    "scot-denoised-4": "d26f268c31228d472a801a80e6038e11a9d80e0986c1503dca4c87948fb740e8",
    "scot-denoised-5": "2ef74a801b48e97aeb58d4d052b0ca2dc4578b951e53d84e0204804b797bca2c",
    "scot-denoised-6": "a858f8471aade07bc72ea462ee9ffec64ba1fb8071ed221668c34749c054ea84",
    "scot-denoised-7": "4397b8864b0a3bd8d16391a29bf1cf27d6c9b275cd42b3c7f906bb1f714ca3b5",
}


def _report(name: str):
    if name == "dfa":
        return validate_dfa(acceptance_dfas(), 3, 7)
    protocol, mode, seed = name.rsplit("-", 2)
    return validate_trials(protocol, mode, int(seed), 3)


@pytest.mark.parametrize("name", list(REPORT_DIGESTS))
def test_validation_report_matches_pinned_digest(name):
    assert _report_digest(_report(name)) == REPORT_DIGESTS[name]


# The --trace-out file of `run-<protocol>` on a model compiled at r=6, as
# compiled (hardmax) or after `convert --mode denoised`. Each denoised run
# writes its hardmax run's file: at the theorem's c the two best output
# scores of every step equal the hardmax ones. A record's runner-up is the
# lowest-index token among those with the best score after the emitted one's.
TRACE_WORDS = {"fig2": (fig2_machine, "abab"), "bouncer4": (lambda: bouncer_machine(4), "xy")}
TRACE_DIGESTS = {
    "fig2-cot-hardmax": "43f6d11ba29cdc79c6208c0908357324ff656fdf9ccf93ecd102eccc9be1235d",
    "fig2-cot-denoised": "43f6d11ba29cdc79c6208c0908357324ff656fdf9ccf93ecd102eccc9be1235d",
    "fig2-scot-hardmax": "afa850ba152bd778f05ef25dc9b50eb337daadecc1e9cabcfd6d44eda66ad1bb",
    "fig2-scot-denoised": "afa850ba152bd778f05ef25dc9b50eb337daadecc1e9cabcfd6d44eda66ad1bb",
    "bouncer4-cot-hardmax": "5daa056100ad60aa10e7be4dbd72ee4b451edaf378002538bea7eb59715d2d5e",
    "bouncer4-cot-denoised": "5daa056100ad60aa10e7be4dbd72ee4b451edaf378002538bea7eb59715d2d5e",
    "bouncer4-scot-hardmax": "6862f47b4169627be3a78ce148bf587c32d22c2980ec5bc5846c4b1e80d68336",
    "bouncer4-scot-denoised": "6862f47b4169627be3a78ce148bf587c32d22c2980ec5bc5846c4b1e80d68336",
}
@pytest.mark.parametrize("name", list(TRACE_DIGESTS))
def test_cli_trace_out_matches_pinned_digest(name, tmp_path, capsys):
    machine, protocol, mode = name.split("-")
    make, word = TRACE_WORDS[machine]
    spec, model = tmp_path / "machine.json", str(tmp_path / "model.json")
    spec.write_text(json.dumps(tm_to_json(make())))
    assert main([f"compile-{protocol}", "--tm", str(spec), "--r", "6", "--out", model]) == 0
    if mode == "denoised":
        converted = str(tmp_path / "denoised.json")
        assert main(["convert", "--model", model, "--mode", "denoised", "--out", converted]) == 0
        model = converted
    trace = tmp_path / "trace.jsonl"
    main([f"run-{protocol}", "--model", model, "--word", word, "--trace-out", str(trace)])
    capsys.readouterr()
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == TRACE_DIGESTS[name]
