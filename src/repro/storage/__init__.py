"""Storage substrate: simulated HDFS, file formats, metastore.

* :mod:`repro.storage.formats` — Text, Sequence and ORC encodings.  A
  file keeps its columns in memory and is read as columns, but each
  format computes real encoded byte sizes (ORC actually
  dictionary/RLE-encodes and zlib-compresses column streams) so the
  cost model charges realistic I/O.
* :mod:`repro.storage.hdfs` — NameNode/DataNode simulation: block
  placement, replication, locality-aware input splits.
* :mod:`repro.storage.metastore` — Hive Metastore: table name → schema,
  location, format.
"""

from repro.storage.formats.base import FileFormat, StoredFile, ScanResult, get_format
from repro.storage.formats.text import TextFormat
from repro.storage.formats.sequence import SequenceFormat
from repro.storage.formats.orc import OrcFormat
from repro.storage.hdfs import HDFS, DataFile, FileSplit
from repro.storage.metastore import Metastore, TableDescriptor

__all__ = [
    "FileFormat",
    "StoredFile",
    "ScanResult",
    "get_format",
    "TextFormat",
    "SequenceFormat",
    "OrcFormat",
    "HDFS",
    "DataFile",
    "FileSplit",
    "Metastore",
    "TableDescriptor",
]
