"""Communication substrate: metered channel + hybrid update messages.

Implements §IV-C's hybrid communication mode.  Each server buffers the
vertex values it updated while processing its tiles and broadcasts them
to every other server once per superstep.  The payload is either

* **dense** — the full ``|V|``-value array plus an update bitvector
  (cheap when most vertices changed), or
* **sparse** — delta-varint ids + values for updated vertices only
  (cheap when few changed),

chosen per-broadcast from the sparsity ratio against the paper's 0.8
threshold, then optionally compressed (snappy-like by default — the
paper's choice after Figure 8d).  The channel delivers each update's
record and meters per-server sent/received traffic by its wire length,
standing in for the paper's ZMQ broadcast layer.
"""

from repro.comm.messages import (
    DENSE,
    SPARSE,
    SPARSITY_THRESHOLD,
    UpdatePayload,
    choose_mode,
    decode_update,
    encode_update,
    stage_update,
)
from repro.comm.channel import Channel

__all__ = [
    "Channel",
    "UpdatePayload",
    "encode_update",
    "stage_update",
    "decode_update",
    "choose_mode",
    "DENSE",
    "SPARSE",
    "SPARSITY_THRESHOLD",
]
