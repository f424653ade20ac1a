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

    def _set_buffer(self, name, value):
        """Replace a registered buffer (used for running statistics updates)."""
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

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = True):
        params = dict(self.named_parameters())
        own = set(params)
        for module, prefix in self._walk():
            for bname in list(module._buffers):
                own.add(prefix + bname)
        missing = own - set(state)
        extra = set(state) - own
        if strict and (missing or extra):
            raise CheckpointError(
                f"state mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}"
            )
        for name, p in params.items():
            if name in state:
                src = T.as_tensor(state[name], dtype=p.value.dtype)
                if src.shape != p.value.shape:
                    raise ShapeError(
                        f"shape mismatch for {name}: {src.shape} vs {p.value.shape}"
                    )
                p.value[...] = src
        for module, prefix in self._walk():
            for bname in list(module._buffers):
                full = prefix + bname
                if full in state:
                    module._set_buffer(
                        bname, T.as_tensor(state[full], dtype=module._buffers[bname].dtype)
                    )

    def _walk(self, prefix: str = ""):
        yield self, prefix
        for name, m in self._modules.items():
            yield from m._walk(prefix + name + ".")

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
    """Indexable list of submodules registered under their position."""

    def __init__(self, items=()):
        super().__init__()
        self._items = []
        for item in items:
            self.append(item)

    def append(self, module: Module):
        self._modules[str(len(self._items))] = module
        self._items.append(module)
        return self

    def __getitem__(self, i):
        return self._items[i]

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        return iter(self._items)
