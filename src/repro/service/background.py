"""Run the service as a foreground daemon or a background thread.

Two entry points share the same startup/shutdown choreography:

* :func:`serve_blocking` — what ``repro serve`` calls: run until
  SIGTERM/SIGINT, then drain in-flight jobs, stop the HTTP listener and
  tear down the warm worker pool;
* :func:`start_service` — an in-process harness that runs the daemon's
  event loop on a dedicated thread and hands back a
  :class:`ServiceHandle`; this is what the end-to-end tests and the
  example client use to get a real socket without a subprocess.
"""

from __future__ import annotations

import asyncio
import queue
import signal
import threading
from typing import Optional, TextIO

from ..campaign.store import ResultStore
from .client import ServiceClient
from .daemon import VerificationService
from .http import ServiceHTTPServer

__all__ = ["ServiceHandle", "serve_blocking", "start_service"]


def _build(store_root: Optional[str], workers: int, trace: bool) -> VerificationService:
    store = ResultStore(store_root) if store_root else None
    return VerificationService(store=store, workers=workers, trace=trace)


class ServiceHandle:
    """A live background service: address, loop handle, clean stop."""

    def __init__(
        self,
        host: str,
        port: int,
        service: VerificationService,
        loop: asyncio.AbstractEventLoop,
        stop_event: asyncio.Event,
        thread: threading.Thread,
    ) -> None:
        self.host = host
        self.port = port
        self.service = service
        self._loop = loop
        self._stop_event = stop_event
        self._thread = thread
        self._drain = True

    def client(self, timeout: float = 300.0) -> ServiceClient:
        """A client bound to this instance."""
        return ServiceClient(host=self.host, port=self.port, timeout=timeout)

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Shut down and join the service thread (idempotent)."""
        self._drain = drain
        if self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already gone (startup crash race)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("service thread did not stop in time")

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_service(
    store_root: Optional[str] = None,
    workers: int = 1,
    host: str = "127.0.0.1",
    port: int = 0,
    trace: bool = False,
) -> ServiceHandle:
    """Start daemon + HTTP server on a fresh thread; returns once listening.

    ``port=0`` (the default) picks an ephemeral port — read it off the
    returned handle.  Startup errors (bad store path, port in use)
    re-raise here rather than being lost on the thread.
    """
    started: "queue.Queue[object]" = queue.Queue()
    holder: dict = {}

    async def _main() -> None:
        service = _build(store_root, workers, trace)
        await service.start()
        server = ServiceHTTPServer(service, host=host, port=port)
        try:
            await server.start()
        except OSError as exc:
            await service.close(drain=False)
            started.put(exc)
            return
        stop_event = asyncio.Event()
        holder["handle"] = handle = ServiceHandle(
            host=host,
            port=server.port,
            service=service,
            loop=asyncio.get_running_loop(),
            stop_event=stop_event,
            thread=threading.current_thread(),
        )
        started.put(handle)
        await stop_event.wait()
        await server.close()
        await service.close(drain=handle._drain)

    def _target() -> None:
        try:
            asyncio.run(_main())
        except BaseException as exc:  # surface startup crashes to the caller
            started.put(exc)

    thread = threading.Thread(target=_target, name="repro-service", daemon=True)
    thread.start()
    outcome = started.get(timeout=60.0)
    if isinstance(outcome, BaseException):
        thread.join(timeout=5.0)
        raise outcome
    assert isinstance(outcome, ServiceHandle)
    return outcome


def serve_blocking(
    host: str = "127.0.0.1",
    port: int = 8765,
    store_root: Optional[str] = ".campaign-results",
    workers: int = 2,
    trace: bool = False,
    out: Optional[TextIO] = None,
) -> int:
    """Run the daemon in the foreground until SIGTERM/SIGINT (``repro serve``).

    Shutdown is graceful: the in-flight job drains, queued jobs are
    cancelled, the event streams see their terminal events, and the warm
    worker pool is torn down before the process exits 0.
    """

    def emit(line: str) -> None:
        if out is not None:
            out.write(line + "\n")
            out.flush()

    async def _main() -> int:
        service = _build(store_root, workers, trace)
        await service.start()
        server = ServiceHTTPServer(service, host=host, port=port)
        try:
            await server.start()
        except OSError as exc:
            await service.close(drain=False)
            emit(f"error: cannot listen on {host}:{port}: {exc}")
            return 1
        emit(
            f"repro service listening on http://{host}:{server.port} "
            f"(store={store_root or 'disabled'}, workers={service.workers})"
        )
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        registered = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop_event.set)
                registered.append(signum)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without signal support
        try:
            await stop_event.wait()
        finally:
            for signum in registered:
                loop.remove_signal_handler(signum)
        emit("shutting down: draining in-flight jobs, stopping warm pool ...")
        await server.close()
        await service.close(drain=True)
        emit("service stopped")
        return 0

    try:
        return asyncio.run(_main())
    except KeyboardInterrupt:
        return 0
