"""Outside-in benchmark harness for affinitykit: inputs, oracles, op runners and spans."""
