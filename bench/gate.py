"""Untimed correctness gate for one pass of CLI results.

Each result is classified as "ok", "undecided" (exit 2, never counted as
wrong), "error: ..." (an uncaught exception, or exit 3 on valid input) or
"wrong: ..." (a verdict that contradicts the answer known for the input,
or a certificate that does not verify).  Every emitted certificate is
parsed back against the input and re-checked with the program's own
verifiers.
"""

import json
from pathlib import Path


class Gate:
    def __init__(self, lib):
        # ``lib`` is the imported ``shellsat`` package.
        self.lib = lib

    def _complex(self, path: str):
        return self.lib.parse_sc(Path(path).read_text(encoding="utf-8"))

    def check_pass(self, calls, results) -> list[str]:
        statuses = [self.check(call, rc, out) for call, (rc, out, _) in zip(calls, results)]
        self._check_wsat_pairs(calls, results, statuses)
        return statuses

    def check(self, call, rc, out) -> str:
        if isinstance(rc, str):
            return f"error: uncaught {rc}"
        if rc == 3:
            return "error: exit 3 on valid input"
        if rc not in (0, 1, 2):
            return f"wrong: exit code {rc!r}"
        try:
            data = json.loads(out)
        except ValueError:
            return "wrong: report is not JSON"
        if rc == 2:
            verdict = data.get("verdict", data.get("status", ""))
            if "budget-exceeded" not in verdict:
                return f"wrong: exit 2 with verdict {verdict!r}"
            return "undecided"
        try:
            return self._check_decided(call, rc, data)
        except self.lib.errors.ShellsatError as exc:
            return f"wrong: certificate does not parse: {exc}"

    def _check_decided(self, call, rc, data) -> str:
        lib = self.lib
        expect = call.expect
        path = call.argv[call.argv.index("--in") + 1]
        K = self._complex(path)
        if expect.startswith("oracle-shelling="):
            expect = "shellable" if expect.endswith("True") else "unshellable"
        if expect == "shellable":
            if rc != 0 or data["verdict"] != "shellable":
                return f"wrong: {data['verdict']} for a shellable input"
            cert = lib.shelling.parse_shelling(data["certificate"], K)
            if not lib.verify_shelling(K, cert):
                return "wrong: shelling certificate does not verify"
            return "ok"
        if expect in ("unshellable", "not-collapsible"):
            if rc != 1:
                return f"wrong: {data['verdict']} for a refutable input"
            return "ok"
        if expect == "collapsible":
            if rc != 0 or data["verdict"] != "collapsible":
                return f"wrong: {data['verdict']} for a collapsible input"
            cert = lib.collapse.parse_collapse(data["certificate"], K)
            k = int(call.argv[call.argv.index("--k") + 1]) if "--k" in call.argv else 0
            if not lib.verify_collapse(K, cert) or not cert.targets_point():
                return "wrong: collapse certificate does not verify"
            if len(cert.removed_triangles) != k:
                return "wrong: collapse removes the wrong number of triangles"
            return "ok"
        if expect == "complete":
            return self._check_chain(K, rc, data)
        if expect == "wsat-yes":
            if rc != 0 or data["verdict"] != "yes":
                return f"wrong: {data['verdict']} for the skeleton of a shellable complex"
            return self._check_saturation(K, data["certificate"])
        if expect.startswith("wsat-number="):
            if rc != 0 or data.get("wsat_number") != int(expect.split("=")[1]):
                return f"wrong: wsat number {data.get('wsat_number')}, expected {expect}"
            return "ok"
        if expect == "wsat-consistent":
            oracle = call.meta.get("oracle")
            n = call.meta["n"]
            if "--number" in call.argv:
                if rc != 0:
                    return f"wrong: wsat --number exit {rc}"
                if oracle is not None and data["wsat_number"] != oracle:
                    return f"wrong: wsat number {data['wsat_number']}, oracle {oracle}"
                return "ok"
            if oracle is not None and (rc == 0) != (oracle == n - 1):
                return f"wrong: decision {data['verdict']}, oracle number {oracle}"
            if rc == 0:
                return self._check_saturation(K, data["certificate"])
            return "ok"
        raise ValueError(f"unknown expectation {expect!r}")

    def _check_saturation(self, F, text: str) -> str:
        lib = self.lib
        cert = lib.wsat.parse_saturation(text, F)
        if not lib.verify_saturation(F, cert):
            return "wrong: saturation certificate does not verify"
        start = cert.start.faces_of_dim(1)
        if len(start) != F.n_vertices - 1 or not cert.start.is_connected():
            return "wrong: saturation does not start from a spanning tree"
        return "ok"

    def _check_chain(self, K, rc, data) -> str:
        lib = self.lib
        if rc != 0 or data["status"] != "complete" or not all(data["verdicts"].values()):
            return f"wrong: chain status {data['status']} on a shellable input"
        L = K
        for _ in range(data["subdivision_depth"]):
            L = L.barycentric_subdivision()
        if data["subdivision_depth"] != (0 if K.is_flag2() else 2):
            return "wrong: subdivision depth"
        if data["subject"] != L.fingerprint or data["chi"] != L.reduced_euler_characteristic():
            return "wrong: chain subject does not match sd^depth of the input"
        shelling = lib.shelling.parse_shelling("\n".join(data["shelling"]), L)
        if not lib.verify_shelling(L, shelling):
            return "wrong: chain shelling does not verify"
        sat = data["saturation"]
        sat_text = "\n".join([f"# start: {', '.join(sat['start'])}"]
                             + [f"{e} : {w}" for e, w in zip(sat["order"], sat["witnesses"])])
        status = self._check_saturation(L.skeleton(1), sat_text)
        if status != "ok":
            return status
        col = data["collapse"]
        col_text = "\n".join([f"# removed: {', '.join(col['removed'])}"]
                             + [f"{a} -> {b}" for a, b in col["steps"]]
                             + ["# target:"] + col["target"])
        cert = lib.collapse.parse_collapse(col_text, L)
        if not lib.verify_collapse(L, cert) or not cert.targets_point():
            return "wrong: chain collapse does not verify"
        if len(cert.removed_triangles) != data["chi"] or data["removed_count"] != data["chi"]:
            return "wrong: removed triangles differ from chi~"
        return "ok"

    def _check_wsat_pairs(self, calls, results, statuses) -> None:
        """The decision says yes iff the exact number equals n - 1."""
        decide = {}
        for i, call in enumerate(calls):
            if call.argv[0] == "wsat" and "--number" not in call.argv:
                decide[call.argv[call.argv.index("--in") + 1]] = i
        for i, call in enumerate(calls):
            if call.argv[0] != "wsat" or "--number" not in call.argv:
                continue
            j = decide.get(call.argv[call.argv.index("--in") + 1])
            if j is None or results[i][0] != 0 or results[j][0] not in (0, 1):
                continue
            number = json.loads(results[i][1])["wsat_number"]
            if (results[j][0] == 0) != (number == call.meta["n"] - 1):
                statuses[i] = (f"wrong: decision exit {results[j][0]} "
                               f"but wsat number {number} with n = {call.meta['n']}")
