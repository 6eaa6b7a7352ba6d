#!/usr/bin/env python3
"""Quickstart: GPU-aware entry-method invocation in (simulated) Charm++.

Builds a two-node Summit machine, creates two chares on different GPUs, and
sends a GPU buffer from one to the other through the UCX machine layer —
the paper's Fig. 4 flow: ``nocopydevice`` parameter, ``CkDeviceBuffer``
wrapper, post entry method naming the destination buffer, regular entry
method running once the GPU data has landed.

Run:  python examples/quickstart.py
"""

import repro.api as api
from repro.charm import Chare, CkDeviceBuffer
from repro.config import MachineConfig


class Receiver(Chare):
    """The paper's ``MyChare``: a post entry method + a regular entry."""

    def __init__(self, nbytes):
        # destination GPU buffer, allocated on this chare's GPU
        self.recv_gpu_data = self.charm.cuda.malloc(self.gpu, nbytes)

    def recv_post(self, posts, sender_name):
        # (2) post entry method: set the destination GPU buffer before the
        # runtime posts the tagged receive
        print(f"  [post ] incoming GPU buffer of {posts[0].size} B "
              f"(tag 0x{posts[0].tag:016x} from PE {posts[0].src_pe})")
        posts[0].buffer = self.recv_gpu_data

    def recv(self, data, sender_name):
        # (3) regular entry method: GPU data is available
        print(f"  [entry] GPU data from {sender_name!r} arrived at "
              f"t={self.charm.time * 1e6:.2f} us; "
              f"payload check: first byte = {data.data[0]}")


class Sender(Chare):
    def __init__(self, nbytes):
        self.send_gpu_data = self.charm.cuda.malloc(self.gpu, nbytes)
        self.send_gpu_data.data[:] = 42  # something recognisable

    def go(self, peer):
        # (1) sender: wrap the GPU buffer — the nocopydevice parameter
        print(f"  [send ] chare on PE {self.pe} (GPU {self.gpu}) sends "
              f"{self.send_gpu_data.size} B of device memory")
        peer.recv(CkDeviceBuffer.wrap(self.send_gpu_data), "sender-chare")


def main():
    nbytes = 64 * 1024

    # one PE per GPU on a 2-node simulated Summit (12 GPUs), built through
    # the unified facade (repro.api works the same for all four models)
    sess = api.session(MachineConfig.summit(nodes=2)).model("charm").build()
    charm = sess.lib
    print(f"machine: {charm.cfg.topology.nodes} nodes, "
          f"{charm.cfg.topology.total_gpus} GPUs, {charm.n_pes} PEs")

    sender = charm.create_chare(Sender, pe=0, nbytes=nbytes)
    receiver = charm.create_chare(Receiver, pe=7, nbytes=nbytes)  # other node

    sender.go(receiver)
    charm.run()

    print(f"done at t={charm.time * 1e6:.2f} us simulated")
    counters = sess.counters
    print(f"UCX device sends: {counters['machine.send_device']}, "
          f"device recvs: {counters['machine.recv_device']}")


if __name__ == "__main__":
    main()
