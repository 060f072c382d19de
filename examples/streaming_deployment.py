"""Streaming deployment — drift detection on a long-running stream.

A long-running service compresses a stream of images with the approximate
jpeg kernel under Rumba's quality management and watches the checker for
drift: when the input population shifts away from what the offline
trainers saw (Challenge II), the stream flags that retraining is due.

Run:  python examples/streaming_deployment.py
"""

import numpy as np

from repro.apps.datasets import image_to_blocks, natural_image
from repro.core import DriftDetector, QualityManagedStream, prepare_system


def main() -> None:
    print("Offline: training accelerator + checker...")
    system = prepare_system("jpeg", scheme="treeErrors", seed=0)

    print("\nOnline: serving an image stream with drift watching...")
    stream = QualityManagedStream(
        system, DriftDetector(calibration_invocations=4, min_band=0.08,
                              smoothing=0.5),
    )
    for i in range(8):  # in-distribution traffic
        image = natural_image((64, 64), seed=400 + i, detail=1.5)
        stream.feed(image_to_blocks(image))
    print(f"  after in-distribution traffic: {stream.status()}")

    for i in range(8):  # the workload shifts to flat synthetic UI frames
        image = np.full((64, 64), 40.0 + 20.0 * (i % 3))
        stream.feed(image_to_blocks(image))
    status = stream.status()
    print(f"  after the workload shift:      {status}")
    if stream.needs_retraining:
        print("  -> drift flagged: re-run the offline trainers on fresh data")
        stream.acknowledge_retraining()


if __name__ == "__main__":
    main()
