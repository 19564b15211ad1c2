"""Container images: named recipes for the processes a container runs.

An :class:`Image` plays the role of a Dockerfile build product: it names
the binaries (process factories) that start when a container boots, plus
its exposed ports.  The testbed ships one image per role (attacker,
device, tserver, ids), and scenarios may derive variants with
:meth:`Image.with_entrypoint`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.containers.container import Container, Process

#: A process factory: receives the booted container, returns the process.
ProcessFactory = Callable[["Container"], "Process"]


@dataclass(frozen=True)
class Image:
    """An immutable container image description."""

    name: str
    tag: str = "latest"
    entrypoints: tuple[ProcessFactory, ...] = ()
    exposed_ports: tuple[int, ...] = ()

    @property
    def reference(self) -> str:
        """The ``name:tag`` image reference."""
        return f"{self.name}:{self.tag}"

    def with_entrypoint(self, *factories: ProcessFactory) -> "Image":
        """Derive an image with additional entrypoint processes."""
        return replace(self, entrypoints=self.entrypoints + tuple(factories))


class Registry:
    """An in-memory image registry (the testbed's local image store)."""

    def __init__(self) -> None:
        self._images: dict[str, Image] = {}

    def push(self, image: Image) -> None:
        self._images[image.reference] = image

    def pull(self, reference: str) -> Image:
        if ":" not in reference:
            reference = f"{reference}:latest"
        try:
            return self._images[reference]
        except KeyError:
            raise KeyError(f"image not found in registry: {reference}") from None

    def __contains__(self, reference: str) -> bool:
        if ":" not in reference:
            reference = f"{reference}:latest"
        return reference in self._images
