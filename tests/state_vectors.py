"""A state's flat vector for tests and bench/layers.py: run_flow steps the
vector flows._reduce gives it, so these live outside the package."""

import numpy as np

from riccilab.flows import FlowState, StateLayout


def layout_of(state: FlowState) -> StateLayout:
    """The layout a state was unpacked through, else its full layout."""
    if state.layout is not None:
        return state.layout
    return StateLayout(state.grid, state.metric.tag,
                       [(name, arr.shape) for name, arr in StateLayout._arrays(state)])


def pack(layout: StateLayout, state: FlowState) -> np.ndarray:
    """The state as one vector; a state `layout` unpacked is not copied."""
    if state.layout is layout:
        return state.vector
    return np.concatenate([arr.ravel() for _, arr in StateLayout._arrays(state)])
