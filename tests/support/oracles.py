"""Run a whole simulation with every node on a reference (oracle) path.

The engine chooses its oracles per node: ``P2Node(fused=False)`` runs the
interpreted element walk instead of the fused strand closures, and
``P2Node(optimize=False)`` plans body terms in naive body order.  No layer
above the node exposes these arguments, so whole-run differentials swap the
class :meth:`OverlaySimulation.add_node` builds for a subclass that passes
them::

    with oracle_nodes(8, fused=False):
        result = run_static_experiment(8, ...)

On exit the fixture checks that the swap took effect: at least *population*
nodes were built, and every one of them (churn joins included) compiled on
the requested path.  A broken swap then fails loudly instead of comparing
the default path with itself.
"""

from contextlib import contextmanager

from repro.runtime import system

#: oracle argument -> the CompiledDataflow flag that records it
_COMPILED_FLAG = {"fused": "fused", "optimize": "optimized"}


@contextmanager
def oracle_nodes(population, **oracle):
    built = []
    default_node = system.P2Node

    class OracleNode(default_node):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs, **oracle)
            built.append(self)

    system.P2Node = OracleNode
    try:
        yield
    finally:
        system.P2Node = default_node
    assert len(built) >= population, f"built {len(built)} oracle nodes, expected {population}"
    for node in built:
        for arg, value in oracle.items():
            flag = getattr(node.compiled, _COMPILED_FLAG[arg])
            assert flag is value, f"{node.address}: compiled.{_COMPILED_FLAG[arg]} is {flag}"
