"""Clients for the service engine: in-process and socket/JSON.

Two ways to talk to an :class:`repro.service.engine.Engine`:

* :class:`ServiceClient` — a thin in-process handle (what tests and
  embedding applications use).
* :class:`ServiceServer` + :class:`SocketServiceClient` — a
  newline-delimited JSON protocol over TCP (stdlib only), behind the
  ``repro serve`` / ``repro submit`` / ``repro jobs`` CLI verbs.  One
  request per line, one response per line::

      → {"op": "submit", "spec": {"graph": "web", "algorithm": "pagerank"}}
      ← {"ok": true, "job_id": "job-00000001", "status": "queued"}

  Ops: ``ping``, ``submit``, ``jobs``, ``status`` (one job),
  ``wait`` (block until terminal), ``result`` (values included),
  ``report`` (the service report dict), ``mutate`` (apply an edge
  insert/delete batch to a registered graph — repro.delta).
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading

from repro.service.engine import Engine
from repro.service.jobs import JobSpec

__all__ = ["ServiceClient", "ServiceServer", "SocketServiceClient"]


class ServiceClient:
    """In-process handle over an engine."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine

    def submit(self, spec: JobSpec | None = None, **fields) -> dict:
        """Submit a job (pass a spec, or its fields as kwargs)."""
        if spec is None:
            spec = JobSpec(**fields)
        record = self.engine.submit(spec)
        return record.to_dict()

    def wait(self, job_id: str, timeout: float | None = None) -> dict:
        return self.engine.wait(job_id, timeout=timeout).to_dict(
            include_result=True
        )

    def status(self, job_id: str) -> dict:
        return self.engine.get(job_id).to_dict(include_result=True)

    def jobs(self) -> list[dict]:
        return [r.to_dict() for r in self.engine.jobs()]

    def result(self, job_id: str) -> dict | None:
        result = self.engine.load_result(job_id)
        return None if result is None else result.to_dict(include_values=True)

    def mutate(self, graph: str, ops) -> dict:
        """Apply an edge insert/delete batch to a registered graph."""
        return self.engine.mutate(graph, ops)

    def report(self) -> dict:
        from repro.obs.report import build_service_report

        return build_service_report(self.engine)


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        client: ServiceClient = self.server.client  # type: ignore[attr-defined]
        for raw in self.rfile:
            line = raw.strip()
            if not line:
                continue
            try:
                response = _dispatch(client, json.loads(line))
            except Exception as exc:  # malformed request must not kill serve
                response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            self.wfile.write(json.dumps(response).encode() + b"\n")
            self.wfile.flush()


def _dispatch(client: ServiceClient, request: dict) -> dict:
    op = request.get("op")
    if op == "ping":
        return {"ok": True, "graphs": client.engine.graphs()}
    if op == "submit":
        # Every key is kept (unlike JobSpec.from_dict): admission names
        # and rejects a knob it does not know.
        record = client.submit(JobSpec(**request.get("spec", {})))
        return {
            "ok": record["status"] != "rejected",
            "job_id": record["job_id"],
            "status": record["status"],
            "reason": record["reason"],
        }
    if op == "jobs":
        return {"ok": True, "jobs": client.jobs()}
    if op == "status":
        return {"ok": True, "job": client.status(request["id"])}
    if op == "wait":
        job = client.wait(request["id"], timeout=request.get("timeout"))
        return {"ok": True, "job": job}
    if op == "result":
        result = client.result(request["id"])
        if result is None:
            return {"ok": False, "error": f"no result for {request['id']!r}"}
        return {"ok": True, "result": result}
    if op == "report":
        return {"ok": True, "report": client.report()}
    if op == "mutate":
        report = client.mutate(request["graph"], request.get("ops", []))
        return {"ok": True, "mutate": report}
    return {"ok": False, "error": f"unknown op {op!r}"}


class ServiceServer(socketserver.ThreadingTCPServer):
    """TCP front end over one engine; one thread per connection."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, engine: Engine, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self.client = ServiceClient(engine)
        self.engine = engine

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def serve_in_thread(self) -> threading.Thread:
        t = threading.Thread(target=self.serve_forever, daemon=True)
        t.start()
        return t


class SocketServiceClient:
    """Line-JSON client for a running :class:`ServiceServer`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 7077,
                 timeout: float = 60.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout

    def request(self, payload: dict) -> dict:
        with socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        ) as sock:
            sock.sendall(json.dumps(payload).encode() + b"\n")
            with sock.makefile("rb") as fh:
                line = fh.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    # Convenience wrappers mirroring ServiceClient.
    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def submit(self, **fields) -> dict:
        return self.request({"op": "submit", "spec": fields})

    def jobs(self) -> list[dict]:
        return self.request({"op": "jobs"})["jobs"]

    def wait(self, job_id: str, timeout: float | None = None) -> dict:
        return self.request(
            {"op": "wait", "id": job_id, "timeout": timeout}
        )["job"]

    def result(self, job_id: str) -> dict:
        return self.request({"op": "result", "id": job_id})["result"]

    def report(self) -> dict:
        return self.request({"op": "report"})["report"]

    def mutate(self, graph: str, ops) -> dict:
        return self.request({"op": "mutate", "graph": graph, "ops": ops})[
            "mutate"
        ]
