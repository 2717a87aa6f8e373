"""Tests for request framing at the HTTP boundary.

The server frames bodies by ``Content-Length`` only.  Any other framing
must be refused outright: a body the parser misreads would otherwise be
parsed as the next request on the keep-alive connection.  The unit half
feeds raw bytes to the request parser; the socket half checks what a
real client sees on the wire.
"""

import asyncio
import json
import socket

import pytest

from repro.serve.harness import ServerHarness
from repro.serve.protocol import BadRequest
from repro.serve.server import _read_request
from tests.serve.conftest import CHAIN_DIMS, make_service


def parse(raw: bytes, max_body_bytes: int = 1 << 20):
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await _read_request(reader, max_body_bytes)

    return asyncio.run(scenario())


def exchange(port: int, raw: bytes) -> bytes:
    """Send ``raw`` on a fresh connection and read until the server closes it."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(raw)
        received = b""
        while True:
            data = sock.recv(65536)
            if not data:
                return received
            received += data


def head_of(response: bytes) -> str:
    return response.split(b"\r\n\r\n", 1)[0].decode("latin-1")


class TestReadRequest:
    def test_transfer_encoding_is_rejected(self):
        raw = (
            b"POST /place HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"2\r\n{}\r\n0\r\n\r\n"
        )
        with pytest.raises(BadRequest, match="Transfer-Encoding"):
            parse(raw)

    def test_transfer_encoding_is_rejected_next_to_content_length(self):
        raw = (
            b"POST /place HTTP/1.1\r\nContent-Length: 2\r\n"
            b"Transfer-Encoding: identity\r\n\r\n{}"
        )
        with pytest.raises(BadRequest, match="Transfer-Encoding"):
            parse(raw)

    def test_conflicting_content_lengths_are_rejected(self):
        raw = b"POST /place HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\n{}"
        with pytest.raises(BadRequest, match="Content-Length"):
            parse(raw)

    def test_repeated_identical_content_length_is_accepted(self):
        raw = b"POST /place HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\n{}"
        request = parse(raw)
        assert request.body == b"{}"


class TestFramingOnTheWire:
    def test_chunked_request_gets_400_and_a_closed_connection(self):
        chunked = (
            b"POST /place HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"5\r\nGET /\r\n0\r\n\r\n"
        )
        with ServerHarness(make_service()) as harness:
            response = exchange(harness.port, chunked)
        head = head_of(response)
        assert head.startswith("HTTP/1.1 400")
        assert "Connection: close" in head
        # Exactly one response: the chunk bytes were never parsed as a
        # second request on the same connection.
        assert response.count(b"HTTP/1.1 ") == 1

    def test_conflicting_content_lengths_get_400(self):
        raw = (
            b"POST /place HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n"
            b"Content-Length: 4\r\n\r\n{}{}"
        )
        with ServerHarness(make_service()) as harness:
            response = exchange(harness.port, raw)
        head = head_of(response)
        assert head.startswith("HTTP/1.1 400")
        assert "Connection: close" in head
        assert response.count(b"HTTP/1.1 ") == 1

    @pytest.mark.parametrize(
        "request_line, body",
        [
            (b"GET /nowhere HTTP/1.1", b""),
            (b"POST /place HTTP/1.1", b"not json"),
        ],
    )
    def test_error_response_honours_client_connection_close(self, request_line, body):
        raw = (
            request_line
            + b"\r\nHost: x\r\nConnection: close\r\nContent-Length: "
            + str(len(body)).encode()
            + b"\r\n\r\n"
            + body
        )
        with ServerHarness(make_service()) as harness:
            response = exchange(harness.port, raw)
        head = head_of(response)
        assert head.split(" ", 2)[1] in {"400", "404"}
        assert "Connection: close" in head
        assert "keep-alive" not in head
        payload = json.loads(response.split(b"\r\n\r\n", 1)[1])
        assert "error" in payload

    @pytest.mark.parametrize(
        "method, path, body",
        [
            ("GET", "/healthz", None),
            ("POST", "/place", {"dims": CHAIN_DIMS}),
            ("POST", "/place_batch", {"dims_batch": [CHAIN_DIMS]}),
            ("POST", "/place_batch", {"dims_batch": [CHAIN_DIMS], "stream": True}),
        ],
    )
    def test_success_response_honours_client_connection_close(
        self, chain_payload, method, path, body
    ):
        data = b"" if body is None else json.dumps({"circuit": chain_payload, **body}).encode()
        raw = (
            f"{method} {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            f"Content-Length: {len(data)}\r\n\r\n"
        ).encode() + data
        with ServerHarness(make_service()) as harness:
            response = exchange(harness.port, raw)
        head = head_of(response)
        assert head.startswith("HTTP/1.1 200")
        assert "Connection: close" in head
        assert "keep-alive" not in head
        assert response.count(b"HTTP/1.1 ") == 1
