"""quantlab: a desk-scale post-training quantization laboratory for
transformer inference."""

from .checkpoint import load_model, save_model
from .quantcore import QuantSpec, QuantParams, QuantizedTensor, fake_quant
from .quantrun import QuantPlan
from .rng import make_rng
from .toymodel import ToyConfig, ToyModel, init_model

__version__ = "0.1.0"

__all__ = [
    "QuantSpec", "QuantParams", "QuantizedTensor", "fake_quant",
    "QuantPlan", "make_rng",
    "ToyConfig", "ToyModel", "init_model", "load_model", "save_model",
    "__version__",
]
