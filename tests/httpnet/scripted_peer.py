"""A TCP peer that answers from a script, for driving HTTP clients
through exact byte sequences (grants, closes, short bodies)."""

import socket
import threading

GRANT = b"Connection: keep-alive\r\n"


def reply(body=b"ok", extra=GRANT, status=b"200 OK", length=None):
    length = len(body) if length is None else length
    return (
        b"HTTP/1.0 " + status + b"\r\nContent-Length: " + str(length).encode()
        + b"\r\n" + extra + b"\r\n" + body
    )


class ScriptedPeer:
    """A TCP peer that plays one script per accepted connection: a list
    of byte strings, each sent in answer to one request head; ``None``
    closes the connection instead of answering.  When a connection's
    script runs out the peer closes it."""

    def __init__(self, *scripts):
        self.scripts = list(scripts)
        self.heads = []         # (connection index, request head bytes)
        self.accepted = 0
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        self.address = self._listener.getsockname()
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        while True:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            index = self.accepted
            self.accepted += 1
            script = self.scripts[index] if index < len(self.scripts) else []
            threading.Thread(
                target=self._play, args=(connection, index, script), daemon=True,
            ).start()

    def _play(self, connection, index, script):
        with connection:
            connection.settimeout(5.0)
            for answer in script:
                head = bytearray()
                try:
                    while b"\r\n\r\n" not in head:
                        chunk = connection.recv(4096)
                        if not chunk:
                            return
                        head.extend(chunk)
                except OSError:
                    return
                self.heads.append((index, bytes(head)))
                if answer is None:
                    return
                if callable(answer):
                    answer = answer()
                connection.sendall(answer)

    def close(self):
        self._listener.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
