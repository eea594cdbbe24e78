"""Transformer models: the workloads the paper profiles.

Attention variants (softmax / linear / Performer-FAVOR / chunked),
feed-forward with the Fig 7 activation set, layer/stack composition,
and the two §3.4 end-to-end models (BERT-MLM and GPT-2-LM analogs).
"""

from .attention import (
    ChunkedAttention,
    LinearAttention,
    PerformerAttention,
    SoftmaxAttention,
    build_attention,
)
from .bert import BertForMaskedLM, MLMHead
from .config import (
    ATTENTION_KINDS,
    AttentionConfig,
    FEATURE_MAPS,
    LayerConfig,
    LLMConfig,
    paper_bert_config,
    paper_gpt_config,
    paper_layer_config,
    scaled,
)
from .feedforward import FeedForward
from .generation import generate, perplexity
from .gpt import GPT2LMHeadModel, tiny_bert_config, tiny_gpt_config
from .kvcache import max_decode_context, record_decode_step
from .seq2seq import (
    CrossAttention,
    DecoderLayer,
    EncoderDecoderTransformer,
    tiny_seq2seq_config,
)
from .transformer import TransformerLayer, TransformerStack

__all__ = [
    "ChunkedAttention",
    "LinearAttention",
    "PerformerAttention",
    "SoftmaxAttention",
    "build_attention",
    "BertForMaskedLM",
    "MLMHead",
    "ATTENTION_KINDS",
    "AttentionConfig",
    "FEATURE_MAPS",
    "LayerConfig",
    "LLMConfig",
    "paper_bert_config",
    "paper_gpt_config",
    "paper_layer_config",
    "scaled",
    "FeedForward",
    "generate",
    "perplexity",
    "GPT2LMHeadModel",
    "tiny_bert_config",
    "tiny_gpt_config",
    "max_decode_context",
    "record_decode_step",
    "CrossAttention",
    "DecoderLayer",
    "EncoderDecoderTransformer",
    "tiny_seq2seq_config",
    "TransformerLayer",
    "TransformerStack",
]
