"""MPI-D, DataMPI's key-value communication library, on the simulated
cluster: usable with no Hive at all, importing only ``repro.common``,
``repro.simulate`` and ``repro.obs``.  :mod:`~repro.datampi.mpi` is the
point-to-point layer, :mod:`~repro.datampi.buffers` the buffer manager,
:mod:`~repro.datampi.bipartite` the O/A communicator and
:mod:`~repro.datampi.mpidrun` the launcher with :class:`MPIDJob`, the
job a caller hands its map and reduce work to.
"""

from repro.datampi.bipartite import ARank, Bipartite, ORank
from repro.datampi.buffers import SendBuffer, SendPartitionList
from repro.datampi.mpi import SimulatedMPI
from repro.datampi.mpidrun import Gang, MPIDJob
