"""Parameter containers: a torch-like Module tree over autograd Nodes.

Attribute assignment registers Parameters, Modules and ModuleLists
automatically; ``state_dict`` flattens parameters and buffers (e.g. batch
norm running statistics) to dotted names, which is also the naming scheme
used by checkpoints and weight transfer.
"""

from __future__ import annotations

import numpy as np

from .autograd import Node
from .errors import CheckpointError, ShapeError
from . import tensor as T


class Parameter(Node):
    """A leaf Node that always requires gradient."""

    def __init__(self, value):
        super().__init__(T.as_tensor(value), requires_grad=True)


class Module:
    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name, value):
        self._buffers[name] = T.as_tensor(value)
        object.__setattr__(self, name, self._buffers[name])

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # -- traversal ---------------------------------------------------------

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params.items():
            yield prefix + name, p
        for name, m in self._modules.items():
            yield from m.named_parameters(prefix + name + ".")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = ""):
        for name, b in self._buffers.items():
            yield prefix + name, b
        for name, m in self._modules.items():
            yield from m.named_buffers(prefix + name + ".")

    def modules(self):
        yield self
        for m in self._modules.values():
            yield from m.modules()

    # -- state -------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: p.value.copy() for name, p in self.named_parameters()}
        state.update({name: b.copy() for name, b in self.named_buffers()})
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]):
        """Copy every parameter and buffer in place from ``state``.

        The names must match exactly (CheckpointError otherwise) and every
        array must have its target's shape (ShapeError otherwise).
        """
        own = {name: p.value for name, p in self.named_parameters()}
        own.update(self.named_buffers())
        missing, extra = own.keys() - state.keys(), state.keys() - own.keys()
        if missing or extra:
            raise CheckpointError(
                f"state mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}"
            )
        for name, dst in own.items():
            src = T.as_tensor(state[name], dtype=dst.dtype)
            if src.shape != dst.shape:
                raise ShapeError(f"shape mismatch for {name}: {src.shape} vs {dst.shape}")
            dst[...] = src

    # -- mode / grads --------------------------------------------------------

    def train(self, mode: bool = True):
        for m in self.modules():
            object.__setattr__(m, "training", mode)
        return self

    def eval(self):
        return self.train(False)

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def param_count(self) -> int:
        return sum(p.value.size for p in self.parameters())


class ModuleList(Module):
    """Iterable list of submodules registered under their position."""

    def __init__(self, items=()):
        super().__init__()
        for item in items:
            self.append(item)

    def append(self, module: Module):
        self._modules[str(len(self._modules))] = module
        return self

    def __iter__(self):
        return iter(self._modules.values())
